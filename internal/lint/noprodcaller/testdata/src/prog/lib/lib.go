// Package lib holds every kind of root-reached function and every kind of
// orphan the noprodcaller analyzer distinguishes.
package lib

// Used is reached from the root package's API.
func Used() {
	var s shape = square{}
	s.area()
	Gen(1)
	Box[int]{}.Get()
}

// FromMain is reached from a cmd/ main.
func FromMain() {}

// FromPerfbench is reached only from the perfbench module.
func FromPerfbench() {}

// TestOnly is exported, but outside the root package that is not a root.
func TestOnly() {} // want `lib\.TestOnly has no production caller`

func orphan() { orphanHelper() } // want `lib\.orphan has no production caller`

func orphanHelper() {} // want `lib\.orphanHelper has no production caller`

type shape interface{ area() int }

type square struct{}

// area is reached through interface dispatch.
func (square) area() int { return viaInterface() }

func viaInterface() int { return 4 }

// Gen and Box.Get are reached through their instantiations.
func Gen[T any](v T) T { return v }

type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

// Name satisfies fmt.Stringer, which the standard library calls.
type Name string

func (n Name) String() string { return string(n) }

// table and hook are package-level declarations: the functions they name
// or call are reached.
var table = []func(){fromTable}

var hook = func() { fromLiteral() }

func fromTable() {}

func fromLiteral() {}

func init() { fromInit() }

func fromInit() {}

// Kept has no production caller but stays, with a reason; the helper only
// it calls needs no directive of its own.
//
//portlint:ignore noprodcaller the reference model tests compare against
func Kept() { keptHelper() }

func keptHelper() {}
