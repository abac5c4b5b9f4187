package main

import (
	"fmt"
	"math/rand"
	"time"

	"simdram"
	"simdram/internal/baseline/cpu"
	"simdram/internal/isa"
	"simdram/internal/ops"
)

// Direct workloads drive one System or Cluster from a single closed-loop
// client. Each job recomputes the same results in place from unchanged
// inputs, so its modeled cost must equal the set-up run's exactly, and
// the results are loaded and checked against the golden model every
// checkEvery-th job, between timed calls, and after set-up.
const (
	directWarm = 512
	checkEvery = 32
)

// replayWorkload is replay: the GraphExprs DAG compiled once on a
// DefaultConfig System, timed work repeated Compiled.Execute calls.
type replayWorkload struct {
	d     dag
	data  [][]uint64
	want  uint64
	sys   *simdram.System
	roots []*simdram.Expr
	cp    *simdram.Compiled
	first costs
	calls int
}

func newReplay(o options) *replayWorkload {
	d, data := replayDAG(simdram.DefaultConfig().DRAM.Cols, o.seed)
	return &replayWorkload{d: d, data: data, want: expect(d.golden(data), o.corrupt)}
}

func (w *replayWorkload) clients() int  { return 1 }
func (w *replayWorkload) warmJobs() int { return directWarm }

func (w *replayWorkload) setup() error {
	sys, err := simdram.New(simdram.DefaultConfig())
	if err != nil {
		return err
	}
	w.sys = sys
	leaves := make([]*simdram.Expr, len(w.data))
	for k, vals := range w.data {
		v, err := sys.AllocVector(len(vals), 8)
		if err != nil {
			return err
		}
		if err := v.Store(vals); err != nil {
			return err
		}
		leaves[k] = sys.Lazy(v)
	}
	w.roots = w.d.exprs(func(k, _ int) *simdram.Expr { return leaves[k] })
	if w.cp, err = sys.Compile(w.roots...); err != nil {
		return err
	}
	st, err := w.cp.Execute()
	if err != nil {
		return err
	}
	w.first = costs{st.CriticalPathNs, st.EnergyPJ, float64(st.Commands)}
	return w.check()
}

func (w *replayWorkload) check() error {
	got := make([][]uint64, len(w.roots))
	for i, r := range w.roots {
		var err error
		if got[i], err = r.Result().Load(); err != nil {
			return err
		}
	}
	return checkRoots("replay roots", got, w.want)
}

func (w *replayWorkload) job(int) (time.Duration, float64, error) {
	return directJob(&w.calls, w.first, w.check, func() (costs, error) {
		st, err := w.cp.Execute()
		return costs{st.CriticalPathNs, st.EnergyPJ, float64(st.Commands)}, err
	})
}

func (w *replayWorkload) exact() costs { return w.first }

func (w *replayWorkload) close() {
	if w.sys != nil {
		w.sys.Close()
	}
}

// clusterWorkload is cluster4: internal/batchgen.ClusterProgram's
// shape — one independent 8-bit addition per (bank, subarray), each
// sharded vector one full segment per channel — on a 4-channel
// Cluster, timed work repeated unprepared ExecBatch calls.
type clusterWorkload struct {
	inputs [][2][]uint64 // per (bank, subarray): the two operands
	want   uint64
	cl     *simdram.Cluster
	prog   isa.Program
	dsts   []vector
	first  costs
	calls  int
}

const clusterChannels = 4

func newCluster(o options) *clusterWorkload {
	cfg := simdram.DefaultClusterConfig(clusterChannels).Channel.DRAM
	n := cfg.Cols * clusterChannels
	w := &clusterWorkload{}
	// batchgen's generator sequence: per (bank, subarray), the two
	// operands' bytes in order.
	rng := rand.New(rand.NewSource(o.seed))
	add, _ := ops.ByName("addition")
	var golden [][]uint64
	for bank := 0; bank < cfg.Banks; bank++ {
		for sub := 0; sub < cfg.SubarraysPerBank; sub++ {
			var in [2][]uint64
			for k := range in {
				in[k] = make([]uint64, n)
				for i := range in[k] {
					in[k][i] = uint64(rng.Uint32()) & 0xFF
				}
			}
			w.inputs = append(w.inputs, in)
			golden = append(golden, cpu.Run(add, 8, in[:]))
		}
	}
	w.want = expect(golden, o.corrupt)
	return w
}

func (w *clusterWorkload) clients() int  { return 1 }
func (w *clusterWorkload) warmJobs() int { return directWarm }

// program allocates the workload's vectors through alloc (a Cluster's
// or, for the single-System comparison, a System's), stores the
// operands, and returns the program and its destinations.
func (w *clusterWorkload) program(cfg simdram.Config, alloc func(bank, sub int) (vector, error)) (isa.Program, []vector, error) {
	var prog isa.Program
	var dsts []vector
	i := 0
	for bank := 0; bank < cfg.DRAM.Banks; bank++ {
		for sub := 0; sub < cfg.DRAM.SubarraysPerBank; sub++ {
			var vs [3]vector
			for k := range vs {
				v, err := alloc(bank, sub)
				if err != nil {
					return nil, nil, err
				}
				vs[k] = v
			}
			for k, vals := range w.inputs[i] {
				if err := vs[k].Store(vals); err != nil {
					return nil, nil, err
				}
			}
			prog = append(prog, isa.Instruction{
				Op:    isa.FromOp(ops.OpAdd),
				Dst:   vs[2].Handle(),
				Src:   [3]uint16{vs[0].Handle(), vs[1].Handle()},
				Size:  uint32(len(w.inputs[i][0])),
				Width: 8,
			})
			dsts = append(dsts, vs[2])
			i++
		}
	}
	return prog, dsts, nil
}

// vector is what program needs of a Vector or ShardedVector.
type vector interface {
	Handle() uint16
	Store([]uint64) error
	Load() ([]uint64, error)
}

func (w *clusterWorkload) setup() error {
	cfg := simdram.DefaultClusterConfig(clusterChannels)
	cl, err := simdram.NewCluster(cfg)
	if err != nil {
		return err
	}
	w.cl = cl
	n := len(w.inputs[0][0])
	prog, dsts, err := w.program(cfg.Channel, func(bank, sub int) (vector, error) {
		return cl.AllocShardedVectorAt(n, 8, bank, sub)
	})
	if err != nil {
		return err
	}
	w.prog, w.dsts = prog, dsts
	st, err := cl.ExecBatch(prog)
	if err != nil {
		return err
	}
	w.first = costs{st.CriticalPathNs, st.EnergyPJ, float64(st.Commands)}
	return w.check()
}

func (w *clusterWorkload) check() error {
	got := make([][]uint64, len(w.dsts))
	for i, d := range w.dsts {
		var err error
		if got[i], err = d.Load(); err != nil {
			return err
		}
	}
	return checkRoots("cluster sums", got, w.want)
}

func (w *clusterWorkload) job(int) (time.Duration, float64, error) {
	return directJob(&w.calls, w.first, w.check, func() (costs, error) {
		st, err := w.cl.ExecBatch(w.prog)
		return costs{st.CriticalPathNs, st.EnergyPJ, float64(st.Commands)}, err
	})
}

// directJob times one execution call, requires its modeled cost to
// equal the set-up run's, and checks the results every checkEvery-th
// call, outside the timed part.
func directJob(calls *int, first costs, check func() error, call func() (costs, error)) (time.Duration, float64, error) {
	start := time.Now()
	c, err := call()
	lat := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if c != first {
		return 0, 0, fmt.Errorf("modeled cost %+v, set-up run %+v", c, first)
	}
	if *calls++; *calls%checkEvery == 0 {
		if err := check(); err != nil {
			return 0, 0, err
		}
	}
	return lat, c.modeledNs, nil
}

func (w *clusterWorkload) exact() costs { return w.first }

func (w *clusterWorkload) close() {
	if w.cl != nil {
		w.cl.Close()
	}
}
