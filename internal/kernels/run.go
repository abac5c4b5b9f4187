// Package kernels implements the seven application kernels of SIMDRAM's
// evaluation (paper §5) — VGG-13, VGG-16, LeNet, kNN, TPC-H, BitWeaving,
// Brightness — each as a pure-Go reference and as lazy expressions the
// graph compiler lowers to bbop programs: it allocates their rows,
// reuses temporaries and passes every plan through the IR verifier
// before a command runs. The *Expr builders are pure (no System, no
// allocation), so a Server can run them on any free channel and its
// plan cache can share one compiled plan between requests that differ
// only in payload; the *SIMDRAM functions materialize the same
// expressions on one System. Functional correctness is checked at
// laptop scale; paper-scale performance comes from the analytical specs
// in spec.go, driven by the same μPrograms.
package kernels

import "simdram"

// materialize compiles and runs e as one batch on sys, adds the batch's
// cost to st and returns e's result vector, which the caller frees.
func materialize(sys *simdram.System, st *simdram.Stats, e *simdram.Expr) (*simdram.Vector, error) {
	bs, err := sys.Materialize(e)
	if err != nil {
		return nil, err
	}
	st.LatencyNs += bs.BusyNs
	st.EnergyPJ += bs.EnergyPJ
	st.Commands += bs.Commands
	return e.Result(), nil
}

// load materializes e and returns its lanes, freeing its result.
func load(sys *simdram.System, st *simdram.Stats, e *simdram.Expr) ([]uint64, error) {
	v, err := materialize(sys, st, e)
	if err != nil {
		return nil, err
	}
	defer v.Free()
	return v.Load()
}

// accumulator is a kernel's 32-bit running value in DRAM. Each step
// materializes acc = f(acc) as its own batch, so only one step's
// operands hold rows at a time.
type accumulator struct {
	sys *simdram.System
	st  *simdram.Stats
	v   *simdram.Vector
}

// newAccumulator stores an n-lane zero.
func newAccumulator(sys *simdram.System, st *simdram.Stats, n int) (*accumulator, error) {
	v, err := materialize(sys, st, simdram.Input(make([]uint64, n), 32))
	if err != nil {
		return nil, err
	}
	return &accumulator{sys: sys, st: st, v: v}, nil
}

// expr is the running value as an expression leaf.
func (a *accumulator) expr() *simdram.Expr { return a.sys.Lazy(a.v) }

// step makes next, an expression over expr(), the running value.
func (a *accumulator) step(next *simdram.Expr) error {
	v, err := materialize(a.sys, a.st, next)
	if err != nil {
		return err
	}
	a.v.Free()
	a.v = v
	return nil
}

// free releases the running value.
func (a *accumulator) free() { a.v.Free() }
