package dram

import "simdram/internal/hostcpu"

// haveVector reports AVX2 support.
var haveVector = hostcpu.AVX2

// haveVector512 reports AVX-512 support, with AVX2's: the AVX-512 step
// loop runs where the AVX2 row loops would.
var haveVector512 = haveVector && hostcpu.AVX512

// majVector is majRow on AVX2 over d's first len(d)&^3 words; a, b and
// c hold at least len(d) words.
//
//go:noescape
func majVector(d, a, b, c []uint64, ma, mb, mc, md uint64)

// xorVector is xorRow on AVX2 over d's first len(d)&^3 words; s holds
// at least len(d) words.
//
//go:noescape
func xorVector(d, s []uint64, m uint64)

// stepsVec512 is steps on AVX-512 for rows of words words, one pass
// per step: each 8-word block of the step's value is computed from
// its inputs, loaded first, and stored to every output with that
// output's polarity before the next block is read, so an output may
// alias an input and, where two outputs name one row, the last
// stored wins. A row's last words%8 words form one masked block. Like
// steps4Vec it checks nothing: code must be a built plan's and rows
// must hold every row the plan names, each of exactly words words
// (the View invariant); elsewhere it reads and writes out of bounds.
//
//go:noescape
func stepsVec512(rows [][]uint64, code []int32, words int)

// steps4Vec is steps4 on AVX2, one YMM register per row: it loads a
// step's inputs before it stores any output, so an output may alias an
// input, and takes each entry's polarity from a {zeros, ones} table.
// It checks nothing: code must be a built plan's (newPlan checked it
// parses) and rows must hold every row the plan names (exec checks
// that), each at least 4 words (the View invariant). Where steps4
// would panic it reads and writes out of bounds.
//
//go:noescape
func steps4Vec(rows [][]uint64, code []int32)
