// Command perfbench stands in for the repository's separate benchmark
// module: every in-repo function it references is a production root.
package main

import "portsim/internal/lint/noprodcaller/testdata/src/prog/lib"

func main() { lib.FromPerfbench() }
