// Package lib seeds the testonly analyzer's cases: the marked
// declarations only tests use, or carry a bad //simdram:testapi; the
// rest are used by the command, by the nested module, through an
// interface, or carry the directive with a reason.
package lib

import "fmt"

// Used is called from the command.
func Used() int { return 1 }

// FromNested is called only from the nested module.
func FromNested() int { return 2 }

// OnlyTests is called only from lib_test.go.
func OnlyTests() int { return 3 } // want "OnlyTests is exported but only tests use it"

// Limit is read only from lib_test.go.
const Limit = 4 // want "Limit is exported but only tests use it"

// Meter is used by the command.
type Meter struct{ n int }

// Count is called from the command.
func (m *Meter) Count() int { return m.n }

// Reset is called only from lib_test.go.
func (m *Meter) Reset() { m.n = 0 } // want "Reset is exported but only tests use it"

// String satisfies fmt.Stringer: fmt calls it though no file names it.
func (m *Meter) String() string { return fmt.Sprint(m.n) }

// Peek reads unexported state for tests.
//
//simdram:testapi reads the unexported count
func (m *Meter) Peek() int { return m.n }

// Bare carries the directive with no reason.
//
//simdram:testapi
func Bare() int { return 5 } // want "needs a reason"

// Stale carries the directive though the command calls it.
//
//simdram:testapi kept for tests
func Stale() int { return 6 } // want "which production code uses"
