package ctrl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/uprog"
	"simdram/internal/vertical"
)

// checkSegment reports whether the destination rows of one segment
// hold want in every lane (done) or are all zero (untouched); a
// segment that is neither was partly executed.
func (r *batchRig) checkSegment(bank, sub, base int, want []uint64) (done, untouched bool) {
	sa := r.mod.Subarray(bank, sub)
	untouched = true
	rows := make([][]uint64, r.w)
	for row := range rows {
		rows[row] = sa.PeekRow(base + row)
		if slices.ContainsFunc(rows[row], func(w uint64) bool { return w != 0 }) {
			untouched = false
		}
	}
	got, err := vertical.ToHorizontal(rows, r.w, r.cfg.Cols)
	return err == nil && slices.Equal(got, want), untouched
}

// cancelOnCommand installs a hook on each given subarray that closes
// the returned channel at that subarray's at-th command (counting from
// 1). The hooks close through one sync.Once, so every later command on
// a hooked subarray happens after the close.
func cancelOnCommand(at int, sas ...*dram.Subarray) <-chan struct{} {
	cancel := make(chan struct{})
	var once sync.Once
	for _, sa := range sas {
		n := 0
		sa.OnCommand = func(dram.Command) {
			if n++; n >= at {
				once.Do(func() { close(cancel) })
			}
		}
	}
	return cancel
}

// TestRunCancelMidChain closes Cancel from inside job k of a
// one-subarray chain. Run checks Cancel before every job, so exactly
// jobs 0..k complete: later destination rows stay zero and ErrCanceled
// counts k+1 of n.
func TestRunCancelMidChain(t *testing.T) {
	const n = 6
	for _, k := range []int{0, 2, n - 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			r := newBatchRig(t)
			want := r.seed(t, rand.New(rand.NewSource(int64(30+k))), 0, 0)
			dst := func(j int) int { return 2*r.w + j*r.w }
			jobs := make([]Job, n)
			for j := range jobs {
				b := uprog.Binding{SrcBase: r.bind.SrcBase, DstBase: dst(j), ScratchBase: dst(n)}
				jobs[j] = Job{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: b}}}
				if j > 0 {
					jobs[j].Deps = []int{j - 1}
				}
			}
			cmds := len(r.prog.Ops)
			cancel := cancelOnCommand(k*cmds+cmds/2, r.mod.Subarray(0, 0))
			_, err := runOnce(r.unit, jobs, cancel)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			if msg := fmt.Sprintf("%d of %d", k+1, n); !strings.Contains(err.Error(), msg) {
				t.Errorf("error %q must say %q", err, msg)
			}
			for j := 0; j < n; j++ {
				done, untouched := r.checkSegment(0, 0, dst(j), want)
				if j <= k && !done {
					t.Errorf("job %d was issued before the cancel but did not complete", j)
				}
				if j > k && !untouched {
					t.Errorf("job %d ran after the cancel: its destination rows are nonzero", j)
				}
			}
		})
	}
}

// TestRunCancelMidRound cancels inside a batch of bank-parallel
// jobs. Jobs alternate between two subarray pairs, each job one
// segment on bank 1 and one on bank 0, so bank-disjoint jobs could
// overlap under the timing model. The cancel fires from inside job
// k's bank-0 group, its first group in bank-major order. Run checks
// Cancel only between jobs, so exactly jobs 0..k complete on both
// banks, every later job is untouched on both, and ErrCanceled counts
// k+1 of n.
func TestRunCancelMidRound(t *testing.T) {
	const n = 8
	for _, k := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			r := newBatchRig(t)
			rng := rand.New(rand.NewSource(int64(40 + k)))
			// sub(j) is job j's subarray index in both banks; dst(j)
			// its destination rows, one block per job on that pair.
			sub := func(j int) int { return j % 2 }
			dst := func(j int) int { return 2*r.w + (j/2)*r.w }
			want := map[[2]int][]uint64{}
			for bank := 0; bank < 2; bank++ {
				for s := 0; s < 2; s++ {
					want[[2]int{bank, s}] = r.seed(t, rng, bank, s)
				}
			}
			jobs := make([]Job, n)
			for j := range jobs {
				b := uprog.Binding{SrcBase: r.bind.SrcBase, DstBase: dst(j), ScratchBase: dst(n)}
				jobs[j] = Job{Program: r.prog, Segments: []Segment{
					{Bank: 1, Sub: sub(j), Binding: b},
					{Bank: 0, Sub: sub(j), Binding: b},
				}}
			}
			cancel := cancelOnCommand((k/2)*len(r.prog.Ops)+1, r.mod.Subarray(0, sub(k)))
			_, err := runOnce(r.unit, jobs, cancel)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			if msg := fmt.Sprintf("%d of %d", k+1, n); !strings.Contains(err.Error(), msg) {
				t.Errorf("error %q must say %q", err, msg)
			}
			for j := 0; j < n; j++ {
				for bank := 0; bank < 2; bank++ {
					done, untouched := r.checkSegment(bank, sub(j), dst(j), want[[2]int{bank, sub(j)}])
					if j <= k && !done {
						t.Errorf("job %d bank %d: issued before the cancel but not complete", j, bank)
					}
					if j > k && !untouched {
						t.Errorf("job %d bank %d: ran after the cancel", j, bank)
					}
				}
			}
		})
	}
}

// TestRunEnergyOrder runs a batch of independent jobs over 4 banks × 2
// subarrays on a geometry whose per-command energies are not integral,
// so a sum of group energies depends on its order. Twenty runs, each
// on a fresh module, must report bit-identical BatchStats.EnergyPJ and
// per-bank Attribution.EnergyPJ, equal to the group energies summed in
// program order (jobs in order, each job's groups bank-major). The
// group energies come from a reference module that runs every group
// as a batch of its own in that order, so each subarray's energy
// counter sees the same history.
func TestRunEnergyOrder(t *testing.T) {
	cfg := dram.TestConfig()
	cfg.Banks, cfg.SubarraysPerBank = 4, 2
	cfg.Energy = dram.Energy{ActPJ: 2400.1, PrePJ: 600.3, TRAActPJ: 3600.7, WrPJ: 12000.9, RdPJ: 12000.9}
	// Job j runs on subarray j/4 of banks j%4 and (j+1)%4, listed
	// higher bank first, and writes its own destination block there.
	const n = 8
	jobs := func(r *batchRig) []Job {
		js := make([]Job, n)
		for j := range js {
			b := uprog.Binding{SrcBase: r.bind.SrcBase, DstBase: 2*r.w + j*r.w, ScratchBase: 2*r.w + n*r.w}
			lo, hi := min(j%4, (j+1)%4), max(j%4, (j+1)%4)
			js[j] = Job{Program: r.prog, Segments: []Segment{
				{Bank: hi, Sub: j / 4, Binding: b},
				{Bank: lo, Sub: j / 4, Binding: b},
			}}
		}
		return js
	}

	ref := newBatchRigCfg(t, cfg)
	var want float64
	wantBank := make([]float64, cfg.Banks)
	for _, job := range jobs(ref) {
		segs := slices.Clone(job.Segments)
		slices.SortFunc(segs, func(x, y Segment) int { return x.Bank - y.Bank })
		for _, seg := range segs {
			st, err := runOnce(ref.unit, []Job{{Program: job.Program, Segments: []Segment{seg}}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want += st.EnergyPJ
			wantBank[seg.Bank] += st.EnergyPJ
		}
	}

	for run := 0; run < 20; run++ {
		r := newBatchRigCfg(t, cfg)
		pb, err := r.unit.Prepare(jobs(r))
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.unit.Run(pb, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		at := r.unit.Attribution()
		if st.EnergyPJ != want {
			t.Fatalf("run %d: EnergyPJ %v, want %v summed in program order", run, st.EnergyPJ, want)
		}
		if !slices.Equal(at.EnergyPJ, wantBank) {
			t.Fatalf("run %d: per-bank energy %v, want %v summed in program order", run, at.EnergyPJ, wantBank)
		}
	}
}

// BenchmarkRunChain runs a 30-job RAW chain of 8-bit additions on one
// subarray — every job depends on the previous one. It reports the
// run loop's cost per job around the command kernel.
func BenchmarkRunChain(b *testing.B) {
	const chain = 30
	for _, cols := range []int{256, 8192} {
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			r := newBatchRigCols(b, cols)
			r.seed(b, rand.New(rand.NewSource(50)), 0, 0)
			// Rows: a, b, then two accumulators x and y; job j adds b
			// to the accumulator job j-1 wrote (a for job 0).
			w := r.w
			acc := []int{2 * w, 3 * w}
			jobs := make([]Job, chain)
			for j := range jobs {
				src := 0
				if j > 0 {
					src = acc[(j-1)%2]
				}
				bind := uprog.Binding{SrcBase: []int{src, w}, DstBase: acc[j%2], ScratchBase: 4 * w}
				jobs[j] = Job{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: bind}}}
				if j > 0 {
					jobs[j].Deps = []int{j - 1}
				}
			}
			benchmarkRun(b, r.unit, jobs)
		})
	}
}

// BenchmarkRunBatch runs 16 independent 8-bit additions, one per
// (bank, subarray) of 4 × 4: the bank-parallel batch the timing model
// overlaps, run job after job on the calling goroutine.
func BenchmarkRunBatch(b *testing.B) {
	for _, cols := range []int{256, 8192} {
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			cfg := dram.TestConfig()
			cfg.Cols, cfg.Banks, cfg.SubarraysPerBank = cols, 4, 4
			r := newBatchRigCfg(b, cfg)
			rng := rand.New(rand.NewSource(51))
			var jobs []Job
			for bank := 0; bank < cfg.Banks; bank++ {
				for sub := 0; sub < cfg.SubarraysPerBank; sub++ {
					r.seed(b, rng, bank, sub)
					jobs = append(jobs, Job{Program: r.prog, Segments: []Segment{{Bank: bank, Sub: sub, Binding: r.bind}}})
				}
			}
			benchmarkRun(b, r.unit, jobs)
		})
	}
}

// benchmarkRun prepares jobs once and times Run of the prepared batch,
// reporting the cost per job.
func benchmarkRun(b *testing.B, u *Unit, jobs []Job) {
	pb, err := u.Prepare(jobs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.Run(pb, RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(jobs)), "ns/job")
}
