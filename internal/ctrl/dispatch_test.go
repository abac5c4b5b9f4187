package ctrl

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"simdram/internal/dram"
	"simdram/internal/uprog"
	"simdram/internal/vertical"
)

// TestPool pins TryRun's contract on a size-1 pool: it refuses work
// while the only worker is busy, and hands work over once the worker
// is idle again.
func TestPool(t *testing.T) {
	p := NewPool(1)
	// tryUntil retries until the worker takes f: a worker is idle only
	// once it is back at its receive, which TryRun cannot wait for.
	tryUntil := func(f func()) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !p.TryRun(f) {
			if time.Now().After(deadline) {
				t.Fatal("an idle worker never took the task")
			}
			runtime.Gosched()
		}
	}
	started, release := make(chan struct{}), make(chan struct{})
	tryUntil(func() {
		close(started)
		<-release
	})
	<-started
	if p.TryRun(func() { t.Error("task ran on a busy pool") }) {
		t.Fatal("TryRun on a pool whose only worker is blocked must return false")
	}
	close(release)
	ran := make(chan struct{})
	tryUntil(func() { close(ran) })
	<-ran
}

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
// one-subarray chain. The chain runs on the dispatching goroutine, one
// job per round, so exactly jobs 0..k complete: later destination rows
// stay zero and ErrCanceled counts k+1 of n.
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

// TestRunCancelMidRound cancels inside wide dispatch rounds. Jobs
// alternate between two subarray pairs, each job one segment on bank 0
// and one on bank 1, so every round offers up to four groups and runs
// at least its last on the dispatching goroutine. The cancel fires
// from inside job k's bank-0 group; every job must then be either
// complete on both banks or untouched on both, job k and its
// predecessors must complete, job k+2 must be skipped, and ErrCanceled
// must count the completed jobs. At k = 0 the cancel fires inside the
// first round, so exactly jobs 0 and 1 complete.
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
					{Bank: 0, Sub: sub(j), Binding: b},
					{Bank: 1, Sub: sub(j), Binding: b},
				}}
			}
			// At k = 0 every subarray cancels on its first command, so
			// no group of the first round can report before the close.
			var cancel <-chan struct{}
			if k == 0 {
				cancel = cancelOnCommand(1, r.mod.Subarray(0, 0), r.mod.Subarray(0, 1), r.mod.Subarray(1, 0), r.mod.Subarray(1, 1))
			} else {
				cancel = cancelOnCommand((k/2)*len(r.prog.Ops)+1, r.mod.Subarray(0, sub(k)))
			}
			_, err := runOnce(r.unit, jobs, cancel)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			completed := 0
			for j := 0; j < n; j++ {
				var done, untouched int
				for bank := 0; bank < 2; bank++ {
					d, u := r.checkSegment(bank, sub(j), dst(j), want[[2]int{bank, sub(j)}])
					if d {
						done++
					}
					if u {
						untouched++
					}
				}
				switch {
				case done == 2:
					completed++
				case untouched != 2:
					t.Errorf("job %d was partly executed: %d of 2 groups complete, %d untouched", j, done, untouched)
				case j <= k && sub(j) == sub(k):
					t.Errorf("job %d precedes the canceling job %d but did not complete", j, k)
				}
				if j == k+2 && untouched != 2 {
					t.Errorf("job %d depends on the canceling job %d but was issued", j, k)
				}
			}
			if k == 0 && completed != 2 {
				t.Errorf("cancel inside the first round: %d jobs completed, want 2", completed)
			}
			if msg := fmt.Sprintf("%d of %d", completed, n); !strings.Contains(err.Error(), msg) {
				t.Errorf("error %q must say %q", err, msg)
			}
		})
	}
}

// BenchmarkRunChain runs a 30-job RAW chain of 8-bit additions on one
// subarray — every job depends on the previous one, so each dispatch
// round holds one group and the chain runs on the calling goroutine.
// It reports the dispatch cost per job around the command kernel.
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
			pb, err := r.unit.Prepare(jobs)
			if err != nil {
				b.Fatal(err)
			}
			// One untimed run starts the process-wide pool.
			if _, _, err := r.unit.Run(pb, RunOpts{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := r.unit.Run(pb, RunOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chain), "ns/job")
		})
	}
}
