// Command tool is a production root: the main of a package under cmd/.
package main

import "portsim/internal/lint/noprodcaller/testdata/src/prog/lib"

func main() { lib.FromMain() }

func unused() {} // want `main\.unused has no production caller`
