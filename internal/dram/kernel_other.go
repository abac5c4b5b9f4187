//go:build !amd64

package dram

// haveVector is false off amd64: the row loops are pure Go.
const haveVector = false

// majVector is majGo where the row loops have no vector form.
func majVector(d, a, b, c []uint64, ma, mb, mc, md uint64) { majGo(d, a, b, c, ma, mb, mc, md) }

// xorVector is xorGo where the row loops have no vector form.
func xorVector(d, s []uint64, m uint64) { xorGo(d, s, m) }
