// Package kernels implements the seven application kernels of SIMDRAM's
// evaluation (paper §5) — VGG-13, VGG-16, LeNet, kNN, TPC-H, BitWeaving,
// Brightness — each twice: a pure-Go reference and a SIMDRAM version
// built from bbop operations on the public API. Functional correctness
// is checked at laptop scale; paper-scale performance comes from the
// analytical specs in spec.go, driven by the same μPrograms.
package kernels

import (
	"fmt"

	"simdram"
)

// Engine wraps a System with kernel-friendly vector helpers over a fixed
// element count, tracking cumulative cost.
type Engine struct {
	Sys   *simdram.System
	N     int
	Stats simdram.Stats
}

// NewEngine builds an engine for n-element vectors.
func NewEngine(sys *simdram.System, n int) *Engine {
	return &Engine{Sys: sys, N: n}
}

// FromData allocates a width-bit vector and stores data into it.
func (e *Engine) FromData(data []uint64, width int) (*simdram.Vector, error) {
	if len(data) != e.N {
		return nil, fmt.Errorf("kernels: engine is %d-element, data has %d", e.N, len(data))
	}
	v, err := e.Sys.AllocVector(e.N, width)
	if err != nil {
		return nil, err
	}
	if err := v.Store(data); err != nil {
		v.Free()
		return nil, err
	}
	return v, nil
}

// Const allocates a vector with every element equal to val.
func (e *Engine) Const(val uint64, width int) (*simdram.Vector, error) {
	data := make([]uint64, e.N)
	for i := range data {
		data[i] = val
	}
	return e.FromData(data, width)
}

// Op runs an operation, allocating a destination of the right width.
func (e *Engine) Op(name string, srcs ...*simdram.Vector) (*simdram.Vector, error) {
	_, dw, err := simdram.Widths(name, srcs[0].Width())
	if err != nil {
		return nil, err
	}
	dst, err := e.Sys.AllocVector(e.N, dw)
	if err != nil {
		return nil, err
	}
	st, err := e.Sys.Run(name, dst, srcs...)
	if err != nil {
		dst.Free()
		return nil, err
	}
	e.Stats.LatencyNs += st.LatencyNs
	e.Stats.EnergyPJ += st.EnergyPJ
	e.Stats.Commands += st.Commands
	return dst, nil
}

// Replace frees *dst and points it at next — the accumulate idiom
// acc = op(acc, x).
func Replace(dst **simdram.Vector, next *simdram.Vector) {
	if *dst != nil {
		(*dst).Free()
	}
	*dst = next
}

// FreeAll frees all listed vectors.
func FreeAll(vs ...*simdram.Vector) {
	for _, v := range vs {
		if v != nil {
			v.Free()
		}
	}
}
