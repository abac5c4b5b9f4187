package simdram

// Tests for the Server's per-channel prepared-program memo: a job that
// replays a memoized program must be indistinguishable from one that
// lowers and prepares in full, and every kind of drift that could make
// an entry stale — plan eviction, a profile-guided recompile, rows a
// raw job left allocated or claimed — must send the job down the full
// path. Every result is checked against the CPU baseline.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"simdram/internal/baseline/cpu"
	"simdram/internal/ops"
)

// cpuEval computes a data-leaf expression on the host, one CPU-baseline
// operation per node, and returns its values and width.
func cpuEval(t testing.TB, e *Expr, n int) ([]uint64, int) {
	t.Helper()
	switch e.kind {
	case exprData:
		return e.data, e.width
	case exprConst:
		return splatOf(e.val&(^uint64(0)>>(64-e.width)), n), e.width
	case exprOp:
		d, err := ops.ByName(e.opName)
		if err != nil {
			t.Fatal(err)
		}
		operands := make([][]uint64, len(e.args))
		width := 0
		for i, a := range e.args {
			vals, w := cpuEval(t, a, n)
			operands[i] = vals
			if i == 0 {
				width = w
			}
		}
		return cpu.Run(d, width, operands), d.DstWidth(width)
	}
	t.Fatalf("cpuEval: expression kind %d", e.kind)
	return nil, 0
}

const memoN = 300 // three 128-column segments on testServer channels

// memoShape is the memo tests' request: two roots over three shared
// 8-bit Input leaves and a surviving constant.
func memoShape(rng *rand.Rand) []*Expr {
	a, b, c := Input(randData(rng, memoN, 8), 8), Input(randData(rng, memoN, 8), 8), Input(randData(rng, memoN, 8), 8)
	return []*Expr{a.Add(b).Max(c).Sub(Scalar(9, 8)), a.Greater(c).IfElse(b, c)}
}

// memoJob serves exprs, checks every root against the CPU baseline, and
// returns the result and how many plans the job verified.
func memoJob(t *testing.T, srv *Server, exprs []*Expr) (*JobResult, int64) {
	t.Helper()
	verified := srv.VerifiedPlans()
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "memo"}, exprs...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkRoots(t, exprs, res)
	return res, srv.VerifiedPlans() - verified
}

func checkRoots(t *testing.T, exprs []*Expr, res *JobResult) {
	t.Helper()
	for i, e := range exprs {
		want, _ := cpuEval(t, e, memoN)
		if !reflect.DeepEqual(res.Values[i], want) {
			t.Fatalf("root %d differs from the CPU baseline", i)
		}
	}
}

// memoEntries returns a copy of channel ch's memo.
func memoEntries(srv *Server, ch int) map[string]*hitEntry {
	m := &srv.hits[ch]
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]*hitEntry{}
	for k, e := range m.entries {
		out[k] = e
	}
	return out
}

// onlyEntry returns channel ch's single memo entry.
func onlyEntry(t *testing.T, srv *Server, ch int) (string, *hitEntry) {
	t.Helper()
	entries := memoEntries(srv, ch)
	if len(entries) != 1 {
		t.Fatalf("channel %d memo holds %d entries, want 1", ch, len(entries))
	}
	for k, e := range entries {
		return k, e
	}
	return "", nil
}

// memoServer is a one-channel server with profile feedback off, so
// no recompile replaces a test's plan.
func memoServer(t *testing.T, tune func(*ServerConfig)) *Server {
	t.Helper()
	return testServer(t, 1, func(cfg *ServerConfig) {
		cfg.ProfileThreshold = -1
		if tune != nil {
			tune(cfg)
		}
	})
}

// warmMemo runs a shape's cold compile, its first plan-cache hit,
// which marks the shape seen, and its second, which records the
// channel's entry; each prepares and verifies its program. It returns
// the recording job's result.
func warmMemo(t *testing.T, srv *Server, rng *rand.Rand) *JobResult {
	t.Helper()
	var res *JobResult
	for i := 0; i < 3; i++ {
		var verified int64
		res, verified = memoJob(t, srv, memoShape(rng))
		if res.Compile.CacheHit != (i > 0) || verified != 1 {
			t.Fatalf("warm-up job %d: cache hit %v, %d plans verified; want hit %v, 1 plan", i, res.Compile.CacheHit, verified, i > 0)
		}
		if entries := memoEntries(srv, 0); i > 0 && len(entries) != 1 {
			t.Fatalf("warm-up job %d: memo holds %d entries, want 1", i, len(entries))
		}
	}
	if _, e := onlyEntry(t, srv, 0); e.pp == nil {
		t.Fatal("second plan-cache hit recorded no prepared program")
	}
	return res
}

// requireReplay serves the shape and checks it replayed the memo.
func requireReplay(t *testing.T, srv *Server, rng *rand.Rand, label string) *JobResult {
	t.Helper()
	res, verified := memoJob(t, srv, memoShape(rng))
	if verified != 0 {
		t.Fatalf("%s: job verified %d plans, want a replay of the memoized program", label, verified)
	}
	return res
}

// requireFullPath serves the shape and checks it lowered, verified and
// prepared its program.
func requireFullPath(t *testing.T, srv *Server, rng *rand.Rand, label string) {
	t.Helper()
	if _, verified := memoJob(t, srv, memoShape(rng)); verified != 1 {
		t.Fatalf("%s: job verified %d plans, want 1 (the full path)", label, verified)
	}
}

// TestServerMemoHitMatchesMiss replays a memoized program and checks
// the replay's batch stats equal, field for field, those of the job
// that prepared it; Close drops the memo.
func TestServerMemoHitMatchesMiss(t *testing.T) {
	srv := memoServer(t, nil)
	rng := rand.New(rand.NewSource(1))
	miss := warmMemo(t, srv, rng)
	_, e := onlyEntry(t, srv, 0)
	for i := 0; i < 3; i++ {
		hit := requireReplay(t, srv, rng, "replay")
		if hit.Batch != miss.Batch {
			t.Fatalf("replay %d batch %+v, preparing job's %+v", i, hit.Batch, miss.Batch)
		}
		if !hit.Compile.CacheHit {
			t.Fatalf("replay %d: not a plan-cache hit", i)
		}
	}
	if _, again := onlyEntry(t, srv, 0); again != e {
		t.Fatal("replays replaced the memo entry")
	}
	srv.Close()
	if n := len(memoEntries(srv, 0)); n != 0 {
		t.Fatalf("memo holds %d entries after Close", n)
	}
}

// TestServerMemoCap fills a channel's memo with seen-only shapes: the
// shape past the cap drops the whole memo and starts it afresh.
func TestServerMemoCap(t *testing.T) {
	srv := memoServer(t, nil)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i <= hitMemoCap; i++ {
		shape := []*Expr{Input(randData(rng, memoN, 8), 8).Add(Scalar(uint64(i), 8))}
		memoJob(t, srv, shape) // cold compile
		memoJob(t, srv, shape) // first plan-cache hit: seen
		want := i + 1
		if i == hitMemoCap {
			want = 1
		}
		if n := len(memoEntries(srv, 0)); n != want {
			t.Fatalf("after shape %d: memo holds %d entries, want %d", i, n, want)
		}
	}
}

// TestServerMemoDropsEvictedPlan evicts a memoized shape's plan: the
// evict hook drops the entry, and the shape's next job compiles and
// prepares in full.
func TestServerMemoDropsEvictedPlan(t *testing.T) {
	srv := memoServer(t, func(cfg *ServerConfig) { cfg.PlanCacheSize = 1 })
	rng := rand.New(rand.NewSource(2))
	warmMemo(t, srv, rng)
	key, _ := onlyEntry(t, srv, 0)
	other := Input(randData(rng, memoN, 8), 8).Sub(Input(randData(rng, memoN, 8), 8))
	if _, verified := memoJob(t, srv, []*Expr{other}); verified != 1 {
		t.Fatalf("other shape verified %d plans, want 1", verified)
	}
	if srv.Stats().Cache.Evicted != 1 {
		t.Fatalf("cache stats %+v, want one eviction", srv.Stats().Cache)
	}
	if _, ok := memoEntries(srv, 0)[key]; ok {
		t.Fatal("evicted plan's memo entry survived")
	}
	requireFullPath(t, srv, rng, "after eviction")
}

// TestServerMemoMissesRecompiledPlan drives a shape to its
// profile-guided recompile: the entry prepared from the old plan must
// miss, and the next plan-cache hit records one for the new plan.
func TestServerMemoMissesRecompiledPlan(t *testing.T) {
	srv := testServer(t, 1, func(cfg *ServerConfig) {
		cfg.Channel = profileTestConfig()
	})
	data := make([]uint64, 512)
	for i := range data {
		data[i] = uint64(i*37+11) & 0xFF
	}
	want, _ := cpuEval(t, profileShape(data), len(data))
	serve := func() (*JobResult, int64) {
		verified := srv.VerifiedPlans()
		fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "memo"}, profileShape(data))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Values[0], want) {
			t.Fatal("result differs from the CPU baseline")
		}
		return res, srv.VerifiedPlans() - verified
	}
	var old *hitEntry
	for i := 0; ; i++ {
		if i > 2*DefaultProfileMinJobs+2 {
			t.Fatal("no profile-guided recompile")
		}
		res, verified := serve()
		if res.Compile.Recompiled {
			if verified != 1 {
				t.Fatalf("recompiling job verified %d plans, want 1", verified)
			}
			break
		}
		if old != nil && verified != 0 {
			t.Fatalf("job %d verified %d plans, want a replay", i, verified)
		}
		if i >= 2 {
			_, old = onlyEntry(t, srv, 0)
		}
	}
	if old == nil || old.pp == nil {
		t.Fatal("recompile came before the memo held a prepared program")
	}
	res, verified := serve()
	if !res.Compile.CacheHit || verified != 1 {
		t.Fatalf("first hit on the recompiled plan: cache hit %v, %d plans verified; want a hit through the full path", res.Compile.CacheHit, verified)
	}
	_, e := onlyEntry(t, srv, 0)
	if e == old || e.plan == old.plan {
		t.Fatal("memo still holds the entry of the replaced plan")
	}
	if _, verified := serve(); verified != 0 {
		t.Fatalf("second hit on the recompiled plan verified %d plans, want a replay", verified)
	}
}

// TestServerMemoMissesMovedPlacement leaves a vector allocated from a
// raw job, which moves the shape's storage: the placement no longer
// matches and the job prepares in full.
func TestServerMemoMissesMovedPlacement(t *testing.T) {
	srv := memoServer(t, nil)
	rng := rand.New(rand.NewSource(5))
	warmMemo(t, srv, rng)
	var left *Vector
	raw := func(fn func(sys *System) error) {
		t.Helper()
		fut, err := srv.SubmitFn(context.Background(), JobSpec{Tenant: "memo"}, func(sys *System, _ <-chan struct{}) error { return fn(sys) })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	raw(func(sys *System) (err error) {
		left, err = sys.AllocVector(memoN, 8)
		return err
	})
	requireFullPath(t, srv, rng, "rows left allocated")
	requireReplay(t, srv, rng, "replay at the moved placement")
	raw(func(*System) error { left.Free(); return nil })
	requireFullPath(t, srv, rng, "rows released")
	requireReplay(t, srv, rng, "replay at the first placement")
}

// claimTail is a raw job that claims every data row above the first
// rows rows of each subarray a memoN-element vector touches, and frees
// nothing below them: the shape's objects land where they did, but no
// scratch row is left for its μPrograms.
func claimTail(rows int, tail *[]*Vector) func(sys *System, _ <-chan struct{}) error {
	return func(sys *System, _ <-chan struct{}) error {
		var fill []*Vector
		for r := rows; r > 0; r -= min(r, 64) {
			v, err := sys.AllocVector(memoN, min(r, 64))
			if err != nil {
				return err
			}
			fill = append(fill, v)
		}
		for w := 64; w > 0; {
			v, err := sys.AllocVector(memoN, w)
			if err != nil {
				w--
				continue
			}
			*tail = append(*tail, v)
		}
		for _, v := range fill {
			v.Free()
		}
		return nil
	}
}

// TestServerMemoStaleScratchFallsBack claims a memoized shape's
// scratch rows from a raw job without moving its storage. The replay
// check must not fail the job with the memo's own staleness error: the
// job takes the full path and ends exactly as it does on a channel
// that never memoized the shape, and once the rows are back the kept
// entry replays again.
func TestServerMemoStaleScratchFallsBack(t *testing.T) {
	srv := memoServer(t, nil)
	rng := rand.New(rand.NewSource(6))
	warmMemo(t, srv, rng)
	_, e := onlyEntry(t, srv, 0)
	rows := 0
	for _, w := range e.widths {
		rows += w
	}
	serveErr := func(srv *Server) error {
		t.Helper()
		exprs := memoShape(rng)
		fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "memo"}, exprs...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait()
		if err == nil {
			checkRoots(t, exprs, res)
		}
		return err
	}
	claim := func(srv *Server, tail *[]*Vector) {
		t.Helper()
		fut, err := srv.SubmitFn(context.Background(), JobSpec{Tenant: "memo"}, claimTail(rows, tail))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	var tail []*Vector
	claim(srv, &tail)
	got := serveErr(srv)

	fresh := memoServer(t, nil)
	var freshTail []*Vector
	claim(fresh, &freshTail)
	want := serveErr(fresh)
	if (got == nil) != (want == nil) || got != nil && !strings.Contains(got.Error(), "scratch rows") {
		t.Fatalf("memoized channel: %v; channel without a memo: %v", got, want)
	}
	if got != nil && strings.Contains(got.Error(), "stale") {
		t.Fatalf("replay check surfaced as the job's error: %v", got)
	}
	if _, kept := onlyEntry(t, srv, 0); kept != e {
		t.Fatal("the full path's failure replaced the memo entry")
	}
	fut, err := srv.SubmitFn(context.Background(), JobSpec{Tenant: "memo"}, func(*System, <-chan struct{}) error {
		for _, v := range tail {
			v.Free()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	requireReplay(t, srv, rng, "replay after the rows returned")
}

// TestServerMemoConcurrentChannels serves one shape from several
// goroutines onto two channels, each replaying its own memo entry; run
// it under -race.
func TestServerMemoConcurrentChannels(t *testing.T) {
	srv := testServer(t, 2, func(cfg *ServerConfig) {
		cfg.ProfileThreshold = -1
	})
	const clients, jobs = 4, 12
	reqs := make([][][]*Expr, clients)
	wants := make([][][][]uint64, clients)
	for c := range reqs {
		rng := rand.New(rand.NewSource(int64(c + 10)))
		for i := 0; i < jobs; i++ {
			exprs := memoShape(rng)
			want := make([][]uint64, len(exprs))
			for k, e := range exprs {
				want[k], _ = cpuEval(t, e, memoN)
			}
			reqs[c], wants[c] = append(reqs[c], exprs), append(wants[c], want)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := range reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, exprs := range reqs[c] {
				fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "memo"}, exprs...)
				if err != nil {
					errs <- err
					return
				}
				res, err := fut.Wait()
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Values, wants[c][i]) {
					errs <- errors.New("result differs from the CPU baseline")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The cold compile (a second one can race it) and two plan-cache
	// hits per channel, one marking the shape seen and one recording
	// its program, verify; every other job replays.
	if v := srv.VerifiedPlans(); v > 6 {
		t.Fatalf("%d plans verified over %d jobs, want at most 6", v, clients*jobs)
	}
}
