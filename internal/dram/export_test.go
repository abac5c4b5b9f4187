package dram

// stepOutputs calls fn with the output rows of each step of p.
func (p *Plan) stepOutputs(fn func(out []int32)) {
	for c := p.code; len(c) > 0; {
		h := c[0]
		nin, n := 1+2*int(h&stepMaj), int(h>>1)
		fn(c[1+nin : 1+nin+n])
		c = c[1+nin+n:]
	}
}

// Steps returns the number of steps one run of p makes.
func (p *Plan) Steps() int {
	n := 0
	p.stepOutputs(func([]int32) { n++ })
	return n
}

// Passes returns the row passes one run of p makes: one per row
// written.
func (p *Plan) Passes() int {
	n := 0
	p.stepOutputs(func(out []int32) { n += len(out) })
	return n
}

// Bytes returns the memory p's steps hold, not counting the op stream
// it shares.
func (p *Plan) Bytes() int { return 4 * len(p.code) }

// LoopSetting is one choice of the kernel's loops that tests run.
type LoopSetting struct {
	Name   string
	Vector bool // the AVX2 row loops and 4-word step loop
	AVX512 bool // with Vector, the AVX-512 step loop for every width but 4 words
}

// LoopSettings are every choice of loops: the Go ones; the AVX2 ones;
// and the AVX-512 step loop on rows of every width but 4 words, beside
// the AVX2 4-word step loop. The row loops have no AVX-512 form: under
// avx512 they run only where steps is called directly.
var LoopSettings = []LoopSetting{{"go", false, false}, {"avx2", true, false}, {"avx512", true, true}}

// Set selects s's loops and returns a function restoring the previous
// choice. Where the CPU lacks them it changes nothing, and ok is false.
func (s LoopSetting) Set() (restore func(), ok bool) {
	if s.Vector && !haveVector || s.AVX512 && !haveVector512 {
		return func() {}, false
	}
	prev, prev512 := useVector, useVector512
	useVector, useVector512 = s.Vector, s.AVX512
	return func() { useVector, useVector512 = prev, prev512 }, true
}

// Steps runs p's steps alone, with no charge, over the row table rows,
// on the step loop exec picks for rows of rows[0]'s width under the
// current loop setting. Like exec, it panics first if rows lacks a row
// p names.
func Steps(rows [][]uint64, p *Plan) {
	if p.nrows > len(rows) {
		panic("dram: plan names a row outside the row table")
	}
	runSteps(rows, p.code, len(rows[0]))
}
