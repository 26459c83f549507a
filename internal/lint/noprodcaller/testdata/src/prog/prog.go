// Package prog is the noprodcaller fixture's root package: its exported
// API is a production root, like the module root package portsim.
package prog

import "portsim/internal/lint/noprodcaller/testdata/src/prog/lib"

// API is exported from the root package, so it and everything it calls
// are reached.
func API() { lib.Used() }

func helper() {} // want `prog\.helper has no production caller`
