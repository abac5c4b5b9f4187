package simdram

// Tests for the Server's per-channel memo of resident shapes: a job
// that replays a resident entry must be indistinguishable from one
// that lowers and prepares in full, every kind of drift that could make
// an entry stale — plan eviction, a profile-guided recompile, a raw
// job — must send the job down the full path, and rows must never fail
// a job while the memo holds any: a shortage releases every resident
// entry's rows and the job binds again. Every result is checked against
// the CPU baseline.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"simdram/internal/baseline/cpu"
	"simdram/internal/ctrl"
	"simdram/internal/dram"
	"simdram/internal/graph"
	"simdram/internal/ops"
	"simdram/internal/vertical"
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
	out := map[string]*hitEntry{}
	for k, e := range srv.hits[ch].entries {
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

// rowsInUse returns how many data rows channel ch has allocated.
func rowsInUse(srv *Server, ch int) int {
	sys, n := srv.channels[ch], 0
	for _, bank := range sys.rows {
		for _, a := range bank {
			n += a.inUse()
		}
	}
	return n
}

// residentRows returns how many data rows channel ch's resident memo
// entries hold.
func residentRows(srv *Server, ch int) int {
	n := 0
	for _, e := range memoEntries(srv, ch) {
		seen := map[*Vector]bool{}
		for _, v := range e.vecs {
			if !seen[v] {
				seen[v] = true
				n += v.width * len(v.segs)
			}
		}
	}
	return n
}

// requireRowsResident checks that every row channel ch has allocated
// belongs to a resident memo entry: between jobs, nothing else holds
// rows.
func requireRowsResident(t *testing.T, srv *Server, ch int, label string) {
	t.Helper()
	if used, held := rowsInUse(srv, ch), residentRows(srv, ch); used != held {
		t.Fatalf("%s: channel %d has %d rows allocated, resident entries hold %d", label, ch, used, held)
	}
}

// shapeKey returns the plan-cache key of exprs.
func shapeKey(t *testing.T, srv *Server, exprs []*Expr) string {
	t.Helper()
	env, err := buildEnv(srv.channels[0], nil, CompileOptions{}, exprs, true)
	if err != nil {
		t.Fatal(err)
	}
	defer env.recycle()
	return env.key
}

// jobCharges is what one job charged its channel: the batch, the
// DRAM's host traffic and energy, and the transposition unit.
type jobCharges struct {
	batch                 BatchStats
	hostWrites, hostReads int64
	energyPJ              float64
	unit                  vertical.UnitStats
}

// chargedJob serves exprs on a one-channel server with the channel's
// DRAM and transposition-unit counters zeroed first, so the charges
// it returns are the job's alone and accumulate from zero: two jobs
// that charge the same amounts in the same order return bit-identical
// values.
func chargedJob(t *testing.T, srv *Server, exprs []*Expr) (jobCharges, int64) {
	t.Helper()
	sys := srv.channels[0]
	for b := 0; b < sys.mod.NumBanks(); b++ {
		for sub := 0; sub < sys.mod.SubarraysPerBank(); sub++ {
			sys.mod.Subarray(b, sub).Stats = dram.Stats{}
		}
	}
	sys.tu.Stats = vertical.UnitStats{}
	res, verified := memoJob(t, srv, exprs)
	st := sys.mod.Stats()
	return jobCharges{res.Batch, st.HostWrites, st.HostReads, st.EnergyPJ, sys.tu.Stats}, verified
}

// TestServerMemoHitMatchesMiss replays a resident entry and checks
// each replay charges, bit for bit, what the job that recorded it
// charged: the batch stats, the DRAM's host writes, host reads and
// energy, and every transposition-unit counter. A replay canceled
// part-way leaves the entry replayable, and Close releases every row.
func TestServerMemoHitMatchesMiss(t *testing.T) {
	srv := memoServer(t, nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2; i++ {
		memoJob(t, srv, memoShape(rng)) // cold compile, then seen
	}
	rec, verified := chargedJob(t, srv, memoShape(rng))
	if verified != 1 {
		t.Fatalf("recording job verified %d plans, want 1", verified)
	}
	_, e := onlyEntry(t, srv, 0)
	if e.lw == nil {
		t.Fatal("second plan-cache hit kept no binding")
	}
	requireRowsResident(t, srv, 0, "recorded")
	for i := 0; i < 4; i++ {
		hit, verified := chargedJob(t, srv, memoShape(rng))
		if verified != 0 {
			t.Fatalf("replay %d verified %d plans, want a replay", i, verified)
		}
		if hit != rec {
			t.Fatalf("replay %d charged %+v, the recording job %+v", i, hit, rec)
		}
		requireRowsResident(t, srv, 0, "replay")
	}
	if _, again := onlyEntry(t, srv, 0); again != e || e.lw == nil {
		t.Fatal("replays replaced or released the memo entry")
	}

	// Cancel a replay once its program has issued a few commands.
	sys := srv.channels[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	armed, commands := true, 0
	sys.mod.Subarray(0, 0).AddCommandHook(func(c dram.Command) {
		if armed && c.Kind <= dram.CmdMajCopy {
			if commands++; commands == 10 {
				cancel()
			}
		}
	})
	fut, err := srv.SubmitJob(ctx, JobSpec{Tenant: "memo"}, memoShape(rng)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); !errors.Is(err, ctrl.ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled replay: %v, want a cancellation", err)
	}
	armed = false
	if hit := requireReplay(t, srv, rng, "replay after a canceled one"); hit.Batch != rec.batch {
		t.Fatalf("replay after a canceled one: batch %+v, recording job's %+v", hit.Batch, rec.batch)
	}

	srv.Close()
	if n := len(memoEntries(srv, 0)); n != 0 {
		t.Fatalf("memo holds %d entries after Close", n)
	}
	if n := rowsInUse(srv, 0); n != 0 {
		t.Fatalf("%d rows still allocated after Close", n)
	}
}

// TestServerMemoCap fills a channel's memo with hitMemoCap resident
// shapes: the next shape's first plan-cache hit evicts the least
// recently used entry, not the oldest, and releases its rows, and
// every other entry stays resident.
func TestServerMemoCap(t *testing.T) {
	srv := memoServer(t, nil)
	rng := rand.New(rand.NewSource(7))
	shape := func(i int) []*Expr {
		return []*Expr{Input(randData(rng, memoN, 8), 8).Add(Scalar(uint64(i), 8))}
	}
	keys := make([]string, hitMemoCap+1)
	for i := 0; i < hitMemoCap; i++ {
		keys[i] = shapeKey(t, srv, shape(i))
		for range 3 { // cold compile, seen, recorded
			memoJob(t, srv, shape(i))
		}
		if e := memoEntries(srv, 0)[keys[i]]; e == nil || e.lw == nil {
			t.Fatalf("shape %d is not resident", i)
		}
	}
	// Shape 0, the oldest, replays: shape 1 becomes the least recently
	// used.
	if _, verified := memoJob(t, srv, shape(0)); verified != 0 {
		t.Fatal("shape 0 did not replay")
	}
	keys[hitMemoCap] = shapeKey(t, srv, shape(hitMemoCap))
	memoJob(t, srv, shape(hitMemoCap)) // cold compile
	memoJob(t, srv, shape(hitMemoCap)) // first plan-cache hit: seen
	entries := memoEntries(srv, 0)
	if len(entries) != hitMemoCap {
		t.Fatalf("memo holds %d entries, want %d", len(entries), hitMemoCap)
	}
	if _, ok := entries[keys[1]]; ok {
		t.Fatal("the least recently used shape survived the cap")
	}
	for i, k := range keys {
		if e := entries[k]; i != 1 && i != hitMemoCap && (e == nil || e.lw == nil) {
			t.Fatalf("shape %d lost its resident entry", i)
		}
	}
	requireRowsResident(t, srv, 0, "at the cap")
	if _, verified := memoJob(t, srv, shape(0)); verified != 0 {
		t.Fatal("shape 0 stopped replaying")
	}
}

// TestServerMemoDropsEvictedPlan evicts a resident shape's plan from
// another goroutine, as another channel's worker inserting a plan
// does. The evict hook leaves the memo alone: the entry keeps its rows
// until the shape's next job, which compiles the plan again, finds the
// entry pinned to the evicted plan, releases its rows and takes the
// full path. The next plan-cache hit records the shape again and the
// one after replays.
func TestServerMemoDropsEvictedPlan(t *testing.T) {
	srv := memoServer(t, func(cfg *ServerConfig) { cfg.PlanCacheSize = 1 })
	rng := rand.New(rand.NewSource(2))
	warmMemo(t, srv, rng)
	key, e := onlyEntry(t, srv, 0)
	held := rowsInUse(srv, 0)
	if held == 0 {
		t.Fatal("resident entry holds no rows")
	}
	srv.plans.Do("another shape", func() *graph.Plan { return &graph.Plan{} })
	if srv.Stats().Cache.Evicted != 1 {
		t.Fatalf("cache stats %+v, want one eviction", srv.Stats().Cache)
	}
	if e.lw == nil || rowsInUse(srv, 0) != held {
		t.Fatalf("after the eviction: resident %v, %d rows allocated; want the entry still holding its %d rows",
			e.lw != nil, rowsInUse(srv, 0), held)
	}
	res, verified := memoJob(t, srv, memoShape(rng))
	if res.Compile.CacheHit || verified != 1 {
		t.Fatalf("after the eviction: cache hit %v, %d plans verified; want a cold compile through the full path", res.Compile.CacheHit, verified)
	}
	if again, ok := memoEntries(srv, 0)[key]; !ok || again.lw != nil {
		t.Fatal("the evicted plan's entry is not left seen only")
	}
	if n := rowsInUse(srv, 0); n != 0 {
		t.Fatalf("%d rows allocated after the stale entry's release", n)
	}
	requireFullPath(t, srv, rng, "first hit on the new plan")
	requireReplay(t, srv, rng, "replay of the new plan")
	requireRowsResident(t, srv, 0, "after the replay")
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
	var oldPlan *graph.Plan
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
		if oldPlan != nil && verified != 0 {
			t.Fatalf("job %d verified %d plans, want a replay", i, verified)
		}
		if i >= 2 {
			_, e := onlyEntry(t, srv, 0)
			oldPlan = e.plan
		}
	}
	if oldPlan == nil {
		t.Fatal("recompile came before the memo held a prepared program")
	}
	if _, e := onlyEntry(t, srv, 0); e.lw != nil {
		t.Fatal("the recompiling job kept the replaced plan's rows resident")
	}
	res, verified := serve()
	if !res.Compile.CacheHit || verified != 1 {
		t.Fatalf("first hit on the recompiled plan: cache hit %v, %d plans verified; want a hit through the full path", res.Compile.CacheHit, verified)
	}
	if _, e := onlyEntry(t, srv, 0); e.plan == nil || e.plan == oldPlan {
		t.Fatal("the first hit on the recompiled plan did not become resident")
	}
	if _, verified := serve(); verified != 0 {
		t.Fatalf("second hit on the recompiled plan verified %d plans, want a replay", verified)
	}
}

// TestServerMemoMissesMovedPlacement leaves a vector allocated from a
// raw job. The raw job finds the memo's rows released, so the shape's
// next job binds anew, above the left vector, and records that
// binding, which the job after replays; the same holds once the
// vector is freed.
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
		if n := rowsInUse(srv, 0); n != 0 {
			return fmt.Errorf("raw job found %d rows allocated", n)
		}
		left, err = sys.AllocVector(memoN, 8)
		return err
	})
	requireFullPath(t, srv, rng, "rows left allocated")
	requireReplay(t, srv, rng, "replay at the moved placement")
	raw(func(*System) error { left.Free(); return nil })
	requireFullPath(t, srv, rng, "rows released")
	requireReplay(t, srv, rng, "replay at the first placement")
	requireRowsResident(t, srv, 0, "after the raw jobs")
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

// TestServerMemoStaleScratchFallsBack claims a resident shape's
// scratch rows from a raw job, which first releases the memo's rows.
// The memo's staleness must not fail the job: the job takes the full
// path and ends exactly as it does on a channel that never memoized
// the shape, and records nothing. Once the rows are back the shape's
// next job records its binding again and the one after replays it.
func TestServerMemoStaleScratchFallsBack(t *testing.T) {
	srv := memoServer(t, nil)
	rng := rand.New(rand.NewSource(6))
	warmMemo(t, srv, rng)
	_, e := onlyEntry(t, srv, 0)
	rows := 0
	for _, v := range e.vecs {
		rows += v.width
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
	// The channels number their objects differently.
	handles := regexp.MustCompile(`obj[0-9]+`)
	if (got == nil) != (want == nil) || got != nil && (!strings.Contains(got.Error(), "scratch rows") ||
		handles.ReplaceAllString(got.Error(), "obj") != handles.ReplaceAllString(want.Error(), "obj")) {
		t.Fatalf("memoized channel: %v; channel without a memo: %v", got, want)
	}
	if got != nil && strings.Contains(got.Error(), "stale") {
		t.Fatalf("replay check surfaced as the job's error: %v", got)
	}
	if _, kept := onlyEntry(t, srv, 0); kept.lw != nil {
		t.Fatal("the failed full path became resident")
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
	requireFullPath(t, srv, rng, "first job after the rows returned")
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

// notShape is a request of one not per width, each over its own Input
// leaf: its rows are twice the widths' sum in each subarray it
// touches, and its μPrograms need no scratch row.
func notShape(rng *rand.Rand, widths ...int) []*Expr {
	roots := make([]*Expr, len(widths))
	for i, w := range widths {
		roots[i] = Input(randData(rng, memoN, w), w).Not()
	}
	return roots
}

// mulShape is a 16-bit multiplication request: 64 rows in each
// subarray it touches, and 31 scratch rows.
func mulShape(rng *rand.Rand) []*Expr {
	return []*Expr{Input(randData(rng, memoN, 16), 16).Mul(Input(randData(rng, memoN, 16), 16))}
}

// TestServerMemoRowPressure fills the data rows with resident shapes
// and checks that rows never fail a job while the memo holds any: a
// shortage releases every resident entry's rows and the job binds and
// prepares again, on the rows a channel without a memo has free.
func TestServerMemoRowPressure(t *testing.T) {
	srv := memoServer(t, nil)
	rng := rand.New(rand.NewSource(8))
	mulKey, notKey := shapeKey(t, srv, mulShape(rng)), shapeKey(t, srv, notShape(rng, 64, 64, 64, 18))
	resident := func(key string) bool {
		e := memoEntries(srv, 0)[key]
		return e != nil && e.lw != nil
	}
	for range 3 { // 420 of the 500 data rows in each subarray it touches
		memoJob(t, srv, notShape(rng, 64, 64, 64, 18))
	}
	if !resident(notKey) {
		t.Fatal("the not shape is not resident")
	}

	// The multiplication's 64 object rows fit in the 80 rows above the
	// not shape, but its 31 scratch rows do not fit above them: only
	// binding anew, once the not shape's rows are released, prepares.
	res, verified := memoJob(t, srv, mulShape(rng))
	if res.Compile.CacheHit || verified != 1 {
		t.Fatalf("multiplication: cache hit %v, %d plans verified; want a cold compile verified once", res.Compile.CacheHit, verified)
	}
	if resident(notKey) || rowsInUse(srv, 0) != 0 {
		t.Fatalf("after the multiplication: not shape resident %v, %d rows allocated; want both released", resident(notKey), rowsInUse(srv, 0))
	}

	// The multiplication becomes resident first, the not shape above it:
	// the 16 rows left are fewer than the multiplication's scratch rows.
	for range 2 {
		memoJob(t, srv, mulShape(rng))
	}
	memoJob(t, srv, notShape(rng, 64, 64, 64, 18))
	if !resident(mulKey) || !resident(notKey) {
		t.Fatalf("multiplication resident %v, not resident %v; want both", resident(mulKey), resident(notKey))
	}
	requireRowsResident(t, srv, 0, "both shapes resident")
	if _, verified := memoJob(t, srv, mulShape(rng)); verified != 1 {
		t.Fatalf("multiplication verified %d plans, want the full path", verified)
	}
	if !resident(mulKey) || resident(notKey) {
		t.Fatal("the multiplication did not release the rows and record again")
	}
	requireRowsResident(t, srv, 0, "after the multiplication")

	// A miss whose objects find no row at all releases both entries.
	memoJob(t, srv, notShape(rng, 64, 64, 64, 18))
	if !resident(mulKey) || !resident(notKey) {
		t.Fatal("the not shape did not record again")
	}
	miss := []*Expr{Input(randData(rng, memoN, 16), 16).Mul(Input(randData(rng, memoN, 16), 16)).Not()}
	res, verified = memoJob(t, srv, miss)
	if res.Compile.CacheHit || verified != 1 {
		t.Fatalf("miss: cache hit %v, %d plans verified; want a cold compile", res.Compile.CacheHit, verified)
	}
	if resident(mulKey) || resident(notKey) || rowsInUse(srv, 0) != 0 {
		t.Fatal("the miss succeeded without releasing both entries")
	}
}

// TestServerMemoRawJobGetsEveryRow runs a raw job on a channel that
// holds a resident shape: the job can allocate every data row of
// every subarray, and the shape becomes resident again afterwards.
func TestServerMemoRawJobGetsEveryRow(t *testing.T) {
	srv := memoServer(t, nil)
	rng := rand.New(rand.NewSource(9))
	warmMemo(t, srv, rng)
	fut, err := srv.SubmitFn(context.Background(), JobSpec{Tenant: "memo"}, func(sys *System, _ <-chan struct{}) error {
		var all []*Vector
		defer func() {
			for _, v := range all {
				v.Free()
			}
		}()
		cfg := sys.Config().DRAM
		for b := 0; b < cfg.Banks; b++ {
			for sub := 0; sub < cfg.SubarraysPerBank; sub++ {
				for rows := cfg.DataRows(); rows > 0; rows -= min(rows, 64) {
					v, err := sys.AllocVectorAt(cfg.Cols, min(rows, 64), b, sub)
					if err != nil {
						return err
					}
					all = append(all, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatalf("raw job could not allocate every row: %v", err)
	}
	requireFullPath(t, srv, rng, "after the raw job")
	requireReplay(t, srv, rng, "replay after the raw job")
}

// TestServerMemoEvictHookConcurrent has one of two clients evict the
// shape's plan from its own goroutine after every tenth job, while
// both clients serve the shape on two channels: the eviction races the
// channels' workers, which alone touch their memos and release
// entries' rows. Between evictions the shape becomes resident and
// replays. Run it under -race.
func TestServerMemoEvictHookConcurrent(t *testing.T) {
	srv := testServer(t, 2, func(cfg *ServerConfig) {
		cfg.ProfileThreshold = -1
		cfg.PlanCacheSize = 1
	})
	const clients, jobs = 2, 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(int64(c + 20)))
		reqs := make([][]*Expr, jobs)
		wants := make([][][]uint64, jobs)
		for i := range reqs {
			reqs[i] = memoShape(rng)
			for _, e := range reqs[i] {
				w, _ := cpuEval(t, e, memoN)
				wants[i] = append(wants[i], w)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, exprs := range reqs {
				fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "memo"}, exprs...)
				if err == nil {
					var res *JobResult
					if res, err = fut.Wait(); err == nil && !reflect.DeepEqual(res.Values, wants[i]) {
						err = errors.New("result differs from the CPU baseline")
					}
				}
				if err != nil {
					errs <- err
					return
				}
				if c == 0 && i%10 == 9 {
					srv.plans.Do(fmt.Sprint("evicting shape ", i), func() *graph.Plan { return &graph.Plan{} })
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v := srv.VerifiedPlans(); v >= clients*jobs {
		t.Fatalf("%d plans verified over %d jobs: no job replayed", v, clients*jobs)
	}
	for ch := 0; ch < 2; ch++ {
		requireRowsResident(t, srv, ch, "after the clients")
	}
}
