package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The calibration bundle measures how fast the host runs right now.
// The benchmark's hosts share physical cores, caches and memory with
// other machines' work, which slows everything the program does by up
// to 2× for seconds at a time; timing the same fixed bundle of
// benchmark-owned code next to each slice of the workload lets the
// host-time metrics be read at a reference host speed, so that
// slowdown cancels. The bundle mixes what the program's host time is
// made of: a μProgram-like bitwise row loop on one core, the same on
// every core, and allocation, map and channel hand-off work across
// goroutines. No program code runs in it, so no change to the program
// can move it.
//
// calRef is the bundle's time, the geometric mean of its three parts,
// on an idle 2-vCPU Intel Xeon host: the reference speed calibrated
// metrics are expressed at.
const calRef = 6.0e-3 // seconds

var calRows = func() [][]uint64 {
	rows := make([][]uint64, 512)
	for i := range rows {
		rows[i] = make([]uint64, 128)
		for j := range rows[i] {
			rows[i][j] = uint64(i*131+j) * 0x9E3779B97F4A7C15
		}
	}
	return rows
}()

// calSink keeps the bundle's results alive so the compiler cannot drop
// the loops.
var calSink atomic.Uint64

// calibrate runs the bundle and returns its host-speed factor: the
// bundle's time over calRef, so 2 means the host runs at half the
// reference speed.
func calibrate() float64 {
	procs := runtime.GOMAXPROCS(0)
	t1 := timed(func() { majRows(400, 0) })
	t2 := timed(func() {
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				majRows(200, p)
			}(p)
		}
		wg.Wait()
	})
	t3 := timed(handoffs)
	return math.Cbrt(t1*t2*t3) / calRef
}

func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// majRows computes three-row majorities over the calibration rows, the
// shape of a μProgram's triple-row activation.
func majRows(passes, skew int) {
	dst := make([]uint64, 128)
	for u := 0; u < passes; u++ {
		for r := 0; r+2 < len(calRows); r += 3 {
			a, b, c := calRows[r], calRows[r+1], calRows[(r+2+u+skew)%len(calRows)]
			for j := range dst {
				dst[j] = a[j]&b[j] | b[j]&c[j] | a[j]&c[j]
			}
		}
	}
	calSink.Add(dst[0])
}

// handoffs passes a token between two goroutines, each allocating
// small objects, churning a map and running short row loops per turn.
func handoffs() {
	const turns = 2000
	type node struct {
		next *node
		data []uint64
	}
	ping, pong := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	player := func(in <-chan struct{}, out chan<- struct{}, serve bool) {
		defer wg.Done()
		m := map[int]*node{}
		var head *node
		dst := make([]uint64, 4)
		for u := 0; u < turns; u++ {
			if !serve || u > 0 {
				<-in
			}
			for i := 0; i < 8; i++ {
				head = &node{next: head, data: make([]uint64, 8)}
				m[(u*8+i)%512] = head
			}
			if u%64 == 63 {
				head = nil
			}
			for r := 0; r+2 < 64; r += 3 {
				a, b, c := calRows[r], calRows[r+1], calRows[r+2]
				for j := range dst {
					dst[j] = a[j]&b[j] | b[j]&c[j] | a[j]&c[j]
				}
			}
			if serve || u < turns-1 {
				out <- struct{}{}
			}
		}
		calSink.Add(dst[0] + uint64(len(m)))
	}
	wg.Add(2)
	go player(ping, pong, true)
	go player(pong, ping, false)
	wg.Wait()
}
