package ctrl

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/uprog"
	"simdram/internal/vertical"
)

// batchRig bundles a module, unit, and an 8-bit addition μProgram.
type batchRig struct {
	cfg  dram.Config
	mod  *dram.Module
	unit *Unit
	prog *uprog.Program
	w    int
	bind uprog.Binding
}

func newBatchRig(t testing.TB) *batchRig {
	t.Helper()
	return newBatchRigCols(t, dram.TestConfig().Cols)
}

// newBatchRigCols is newBatchRig on a test geometry with the given
// row width in columns.
func newBatchRigCols(t testing.TB, cols int) *batchRig {
	t.Helper()
	cfg := dram.TestConfig()
	cfg.Cols = cols
	mod, err := dram.NewModule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := New(mod, ops.VariantSIMDRAM)
	d, err := ops.ByName("addition")
	if err != nil {
		t.Fatal(err)
	}
	w := 8
	p, err := u.Program(d, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	bind := uprog.Binding{SrcBase: []int{0, w}, DstBase: 2 * w, ScratchBase: 3 * w}
	return &batchRig{cfg: cfg, mod: mod, unit: u, prog: p, w: w, bind: bind}
}

// seed fills the two source operands of one subarray with random bytes
// and returns the expected per-lane sums.
func (r *batchRig) seed(t testing.TB, rng *rand.Rand, bank, sub int) []uint64 {
	t.Helper()
	lanes := r.cfg.Cols
	av := make([]uint64, lanes)
	bv := make([]uint64, lanes)
	want := make([]uint64, lanes)
	for j := range av {
		av[j] = rng.Uint64() & 0xFF
		bv[j] = rng.Uint64() & 0xFF
		want[j] = (av[j] + bv[j]) & 0xFF
	}
	ra, _ := vertical.ToVertical(av, r.w, lanes)
	rb, _ := vertical.ToVertical(bv, r.w, lanes)
	sa := r.mod.Subarray(bank, sub)
	for row := 0; row < r.w; row++ {
		sa.Poke(row, ra[row])
		sa.Poke(r.w+row, rb[row])
	}
	return want
}

// checkDst verifies the destination rows of one subarray.
func (r *batchRig) checkDst(t *testing.T, bank, sub, base int, want []uint64) {
	t.Helper()
	sa := r.mod.Subarray(bank, sub)
	rows := make([][]uint64, r.w)
	for row := 0; row < r.w; row++ {
		rows[row] = sa.PeekRow(base + row)
	}
	got, err := vertical.ToHorizontal(rows, r.w, r.cfg.Cols)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("bank %d sub %d lane %d: got %d, want %d", bank, sub, j, got[j], want[j])
		}
	}
}

// runOnce prepares a batch and runs it once.
func runOnce(u *Unit, jobs []Job, cancel <-chan struct{}) (BatchStats, error) {
	pb, err := u.Prepare(jobs)
	if err != nil {
		return BatchStats{}, err
	}
	st, _, err := u.Run(pb, RunOpts{Cancel: cancel})
	return st, err
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestExecuteBatchDisjointBanksOverlap(t *testing.T) {
	r := newBatchRig(t)
	rng := rand.New(rand.NewSource(7))
	wantA := r.seed(t, rng, 0, 0)
	wantB := r.seed(t, rng, 1, 0)
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 1, Sub: 0, Binding: r.bind}}},
	}
	st, err := runOnce(r.unit, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := r.prog.LatencyNs(r.cfg.Timing)
	if !approx(st.BusyNs, 2*lat) {
		t.Errorf("BusyNs = %f, want %f (serial-equivalent sum)", st.BusyNs, 2*lat)
	}
	if !approx(st.CriticalPathNs, lat) {
		t.Errorf("CriticalPathNs = %f, want %f (bank-disjoint jobs overlap)", st.CriticalPathNs, lat)
	}
	if !approx(st.Speedup(), 2) {
		t.Errorf("Speedup = %f, want 2", st.Speedup())
	}
	r.checkDst(t, 0, 0, r.bind.DstBase, wantA)
	r.checkDst(t, 1, 0, r.bind.DstBase, wantB)
}

func TestExecuteBatchSameBankSerializes(t *testing.T) {
	r := newBatchRig(t)
	rng := rand.New(rand.NewSource(8))
	wantA := r.seed(t, rng, 0, 0)
	wantB := r.seed(t, rng, 0, 1)
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 1, Binding: r.bind}}},
	}
	st, err := runOnce(r.unit, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := r.prog.LatencyNs(r.cfg.Timing)
	if !approx(st.CriticalPathNs, 2*lat) {
		t.Errorf("CriticalPathNs = %f, want %f (same bank serializes)", st.CriticalPathNs, 2*lat)
	}
	if !approx(st.BusyNs, st.CriticalPathNs) {
		t.Errorf("BusyNs %f != CriticalPathNs %f for fully serialized batch", st.BusyNs, st.CriticalPathNs)
	}
	r.checkDst(t, 0, 0, r.bind.DstBase, wantA)
	r.checkDst(t, 0, 1, r.bind.DstBase, wantB)
}

// TestExecuteBatchRAWChain runs sum = a+b then chain = sum+sum' where the
// second job's sources alias the first job's destination rows, in the
// same subarray. Both the declared dependency and the subarray-order
// constraint force serialization; the result must match sequential
// semantics.
func TestExecuteBatchRAWChain(t *testing.T) {
	r := newBatchRig(t)
	rng := rand.New(rand.NewSource(9))
	want := r.seed(t, rng, 0, 0)
	// Second job: dst2 = dst1 + dst1 (reads the rows job 0 writes).
	bind2 := uprog.Binding{
		SrcBase:     []int{r.bind.DstBase, r.bind.DstBase},
		DstBase:     r.bind.DstBase + r.w,
		ScratchBase: r.bind.DstBase + 2*r.w,
	}
	doubled := make([]uint64, len(want))
	for j := range want {
		doubled[j] = (2 * want[j]) & 0xFF
	}
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: bind2}}, Deps: []int{0}},
	}
	st, err := runOnce(r.unit, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(st.CriticalPathNs, st.BusyNs) {
		t.Errorf("dependent chain must serialize: critical path %f, busy %f", st.CriticalPathNs, st.BusyNs)
	}
	r.checkDst(t, 0, 0, r.bind.DstBase, want)
	r.checkDst(t, 0, 0, bind2.DstBase, doubled)
}

func TestExecuteBatchRejectsForwardDeps(t *testing.T) {
	r := newBatchRig(t)
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}, Deps: []int{1}},
		{Program: r.prog, Segments: []Segment{{Bank: 1, Sub: 0, Binding: r.bind}}},
	}
	if _, err := runOnce(r.unit, jobs, nil); err == nil {
		t.Error("forward dependency must be rejected")
	}
	if _, err := runOnce(r.unit, nil, nil); err == nil {
		t.Error("empty batch must be rejected")
	}
}

// TestExecuteBatchJoinsErrors gives two jobs on different banks a
// binding outside the data rows: the batch fails and the joined error
// names both failing banks.
func TestExecuteBatchJoinsErrors(t *testing.T) {
	r := newBatchRig(t)
	bad := uprog.Binding{SrcBase: []int{1 << 20, 1 << 20}, DstBase: 0, ScratchBase: r.w}
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: bad}}},
		{Program: r.prog, Segments: []Segment{{Bank: 1, Sub: 0, Binding: bad}}},
	}
	_, err := runOnce(r.unit, jobs, nil)
	if err == nil {
		t.Fatal("invalid bindings must fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "bank 0") || !strings.Contains(msg, "bank 1") {
		t.Errorf("joined error must name both failing banks, got: %v", msg)
	}
}

// TestExecuteBatchErrorSkipsLater drives a dependency chain whose
// middle job's binding points outside the data rows: Prepare fails,
// naming the job and its bank, before any DRAM command runs, so
// neither the predecessor nor the dependent successor is issued.
func TestExecuteBatchErrorSkipsLater(t *testing.T) {
	r := newBatchRig(t)
	rng := rand.New(rand.NewSource(21))
	r.seed(t, rng, 0, 0)
	before := r.mod.Stats()
	bad := uprog.Binding{SrcBase: []int{1 << 20, 1 << 20}, DstBase: 0, ScratchBase: r.w}
	skippedDst := r.bind.DstBase + r.w
	dependent := uprog.Binding{
		SrcBase:     []int{r.bind.DstBase, r.bind.DstBase},
		DstBase:     skippedDst,
		ScratchBase: skippedDst + r.w,
	}
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 1, Sub: 0, Binding: bad}}, Deps: []int{0}},
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: dependent}}, Deps: []int{1}},
	}
	_, err := r.unit.Prepare(jobs)
	if err == nil {
		t.Fatal("a batch with an out-of-range binding must fail Prepare")
	}
	if msg := err.Error(); !strings.Contains(msg, "job 1") || !strings.Contains(msg, "bank 1") {
		t.Errorf("error must name the failing job and bank, got: %v", err)
	}
	if st := r.mod.Stats(); st != before {
		t.Errorf("commands ran before Prepare failed: %v, want %v", st, before)
	}
	sa := r.mod.Subarray(0, 0)
	for row := r.bind.DstBase; row < skippedDst+r.w; row++ {
		for _, w := range sa.PeekRow(row) {
			if w != 0 {
				t.Fatalf("a job ran after Prepare failed: row %d is nonzero", row)
			}
		}
	}
}

// TestExecuteBatchCancel closes the cancellation signal up front:
// nothing is issued, the DRAM stays untouched, and ErrCanceled reports
// how much of the batch completed.
func TestExecuteBatchCancel(t *testing.T) {
	r := newBatchRig(t)
	rng := rand.New(rand.NewSource(22))
	r.seed(t, rng, 0, 0)
	cancel := make(chan struct{})
	close(cancel)
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 1, Sub: 0, Binding: r.bind}}},
	}
	_, err := runOnce(r.unit, jobs, cancel)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled batch must report ErrCanceled, got: %v", err)
	}
	sa := r.mod.Subarray(0, 0)
	for row := r.bind.DstBase; row < r.bind.DstBase+r.w; row++ {
		for _, w := range sa.PeekRow(row) {
			if w != 0 {
				t.Fatal("canceled batch must not execute any instruction")
			}
		}
	}
	// A nil cancel channel never fires.
	if _, err := runOnce(r.unit, jobs, nil); err != nil {
		t.Fatalf("nil cancel must execute normally: %v", err)
	}
}

// TestExecuteBatchManyIndependent stresses the scheduler with one job
// per subarray — useful under -race to exercise concurrent dispatch.
func TestExecuteBatchManyIndependent(t *testing.T) {
	r := newBatchRig(t)
	rng := rand.New(rand.NewSource(10))
	var jobs []Job
	type key struct{ bank, sub int }
	want := map[key][]uint64{}
	for bank := 0; bank < r.cfg.Banks; bank++ {
		for sub := 0; sub < r.cfg.SubarraysPerBank; sub++ {
			want[key{bank, sub}] = r.seed(t, rng, bank, sub)
			jobs = append(jobs, Job{Program: r.prog, Segments: []Segment{{Bank: bank, Sub: sub, Binding: r.bind}}})
		}
	}
	st, err := runOnce(r.unit, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := r.prog.LatencyNs(r.cfg.Timing)
	wantSpan := lat * float64(r.cfg.SubarraysPerBank)
	if !approx(st.CriticalPathNs, wantSpan) {
		t.Errorf("CriticalPathNs = %f, want %f (per-bank serialization only)", st.CriticalPathNs, wantSpan)
	}
	if st.EnergyPJ <= 0 {
		t.Error("batch must account energy")
	}
	for k, w := range want {
		r.checkDst(t, k.bank, k.sub, r.bind.DstBase, w)
	}
}
