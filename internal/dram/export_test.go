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
