//go:build !amd64

package dram

// haveVector is false off amd64: the row loops are pure Go.
const haveVector = false

// haveVector512 is false off amd64.
const haveVector512 = false

// majVector is majGo where the row loops have no vector form.
func majVector(d, a, b, c []uint64, ma, mb, mc, md uint64) { majGo(d, a, b, c, ma, mb, mc, md) }

// xorVector is xorGo where the row loops have no vector form.
func xorVector(d, s []uint64, m uint64) { xorGo(d, s, m) }

// majVector512 is majGo where the row loops have no vector form.
func majVector512(d, a, b, c []uint64, ma, mb, mc, md uint64) { majGo(d, a, b, c, ma, mb, mc, md) }

// xorVector512 is xorGo where the row loops have no vector form.
func xorVector512(d, s []uint64, m uint64) { xorGo(d, s, m) }

// steps4Vec is steps4 where the step loop has no vector form.
func steps4Vec(rows [][]uint64, code []int32) { steps4(rows, code) }
