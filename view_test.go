package simdram

import (
	"errors"
	"math/rand"
	"testing"

	"simdram/internal/isa"
	"simdram/internal/ops"
)

func TestViewIsFreeRightShift(t *testing.T) {
	sys := testSystem(t)
	rng := rand.New(rand.NewSource(21))
	n, w, k := 300, 16, 3
	a, err := sys.AllocVector(n, w)
	if err != nil {
		t.Fatal(err)
	}
	data := randVals(rng, n, w)
	if err := a.Store(data); err != nil {
		t.Fatal(err)
	}
	before := sys.SystemStats()
	view, err := a.View(k, w-k)
	if err != nil {
		t.Fatal(err)
	}
	if after := sys.SystemStats(); after.Commands != before.Commands {
		t.Error("creating a view must issue zero DRAM commands")
	}
	got, err := view.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := data[i] >> uint(k); got[i] != want {
			t.Fatalf("element %d: view %d, want %d>>%d = %d", i, got[i], data[i], k, want)
		}
	}
}

func TestViewAsOperand(t *testing.T) {
	// (a >> 2) + b computed with no shift μProgram at all: the addition
	// simply reads a's rows starting two higher.
	sys := testSystem(t)
	rng := rand.New(rand.NewSource(22))
	n, w, k := 200, 16, 2
	vw := w - k
	a, _ := sys.AllocVector(n, w)
	b, _ := sys.AllocVector(n, vw)
	dst, _ := sys.AllocVector(n, vw)
	av := randVals(rng, n, w)
	bv := randVals(rng, n, vw)
	a.Store(av)
	b.Store(bv)
	view, err := a.View(k, vw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("addition", dst, view, b); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Load()
	if err != nil {
		t.Fatal(err)
	}
	mask := uint64(1)<<uint(vw) - 1
	for i := range got {
		want := ((av[i] >> uint(k)) + bv[i]) & mask
		if got[i] != want {
			t.Fatalf("element %d: got %d want %d", i, got[i], want)
		}
	}
}

func TestViewBoundsAndFree(t *testing.T) {
	sys := testSystem(t)
	a, _ := sys.AllocVector(100, 8)
	if _, err := a.View(4, 8); err == nil {
		t.Error("view beyond vector width must error")
	}
	if _, err := a.View(-1, 4); err == nil {
		t.Error("negative offset must error")
	}
	v, err := a.View(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Freeing the view must not release a's rows: a is still loadable and
	// a second identical allocation must not reuse its rows.
	v.Free()
	if err := a.Store(make([]uint64, 100)); err != nil {
		t.Errorf("owner unusable after view freed: %v", err)
	}
	a.Free()
	if _, err := a.View(0, 4); err == nil {
		t.Error("view of freed vector must error")
	}
}

// TestFreeInvalidatesOutstandingViews covers the use-after-free hazard:
// freeing a base vector returns its rows to the allocator, so any live
// view of those rows must be invalidated rather than silently read
// whatever vector gets the rows next.
func TestFreeInvalidatesOutstandingViews(t *testing.T) {
	sys := testSystem(t)
	a, err := sys.AllocVector(100, 16)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := a.View(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := v1.View(2, 4) // view of a view hangs off the same owner
	if err != nil {
		t.Fatal(err)
	}
	a.Free()
	if _, err := v1.Load(); err == nil {
		t.Error("view must be invalid after its base is freed")
	}
	if _, err := v2.Load(); err == nil {
		t.Error("view-of-view must be invalid after its base is freed")
	}
	if sys.object(v1.handle) != nil {
		t.Error("invalidated view must leave the object table")
	}
	// The recycled rows belong to the next allocation alone.
	b, err := sys.AllocVector(100, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Store(make([]uint64, 100)); err != nil {
		t.Fatal(err)
	}
	v1.Free() // idempotent no-op on an invalidated view
	v2.Free()
}

// TestViewFreeUnregisters checks a freed view leaves its base's
// tracking list, so churning views on a long-lived base cannot
// accumulate.
func TestViewFreeUnregisters(t *testing.T) {
	sys := testSystem(t)
	a, err := sys.AllocVector(100, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v, err := a.View(1, 8)
		if err != nil {
			t.Fatal(err)
		}
		v.Free()
	}
	if len(a.views) != 0 {
		t.Errorf("base tracks %d views after all were freed, want 0", len(a.views))
	}
	kept, _ := a.View(0, 8)
	freed, _ := a.View(2, 8)
	freed.Free()
	if len(a.views) != 1 || a.views[0] != kept {
		t.Errorf("base must track exactly the live view, got %d entries", len(a.views))
	}
}

// TestHandleReuseAndExhaustion covers the uint16 handle space: freed
// handles are recycled once the fresh range runs out (no wraparound
// onto live objects), fresh handles are preferred while any remain (so
// stale handles keep failing loudly), and true exhaustion is an error
// instead of silently overwriting live entries.
func TestHandleReuseAndExhaustion(t *testing.T) {
	sys := testSystem(t)
	v1, err := sys.AllocVector(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	h := v1.Handle()
	v1.Free()
	v2, err := sys.AllocVector(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Handle() == h {
		t.Errorf("freed handle %d must not be recycled while fresh handles remain", h)
	}
	if _, err := sys.Exec(isa.Instruction{
		Op: isa.FromOp(ops.OpNot), Dst: v2.Handle(), Src: [3]uint16{h},
		Size: 4, Width: 8,
	}); err == nil {
		t.Error("a stale handle must fail loudly, not resolve to a newer object")
	}
	// Exhaust the fresh range: allocation falls back to recycled
	// handles, and only an empty free list is an error.
	sys.handles.next = ^uint16(0)
	sys.handles.free = []uint16{h}
	v3, err := sys.AllocVector(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Handle() != h {
		t.Errorf("exhausted fresh range must recycle freed handle %d, got %d", h, v3.Handle())
	}
	if _, err := sys.AllocVector(4, 8); err == nil {
		t.Fatal("handle exhaustion must be an error")
	}
	if _, err := v2.View(0, 4); err == nil {
		t.Fatal("view creation under handle exhaustion must be an error")
	}
	if sys.object(v2.Handle()) == nil {
		t.Error("failed allocation must not disturb live objects")
	}
	// Freeing returns capacity.
	v3.Free()
	if _, err := sys.AllocVector(4, 8); err != nil {
		t.Errorf("allocation must succeed again after a free: %v", err)
	}
}

// TestRunRejectsOverlappingViewOperand covers the aliasing hole: a View
// of the destination is a distinct *Vector, so a pointer compare lets
// it through even though it physically shares the destination's rows.
func TestRunRejectsOverlappingViewOperand(t *testing.T) {
	sys := testSystem(t)
	n, w := 64, 16
	a, _ := sys.AllocVector(n, w)
	dst, _ := sys.AllocVector(n, w)
	if err := a.Store(make([]uint64, n)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("addition", dst, a, dst); err == nil {
		t.Error("dst as a direct source must be rejected")
	}
	alias, err := dst.View(0, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("addition", dst, a, alias); err == nil {
		t.Error("a view overlapping the destination's rows must be rejected")
	}
	// A view of a *different* vector stays legal (the existing free
	// bit-shift idiom).
	shifted, err := a.View(0, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("addition", dst, a, shifted); err != nil {
		t.Errorf("non-overlapping view operand must be accepted: %v", err)
	}
}

// TestViewsAreReadOnly: a view aliases its base's rows, so neither an
// operation nor a Store may write through it. Both fail with
// ErrReadOnlyView before anything runs: the base keeps its value and
// the System's stats do not move.
func TestViewsAreReadOnly(t *testing.T) {
	sys := testSystem(t)
	n := 32
	base, _ := sys.AllocVector(n, 16)
	a, _ := sys.AllocVector(n, 8)
	b, _ := sys.AllocVector(n, 8)
	fill := func(v uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	for v, val := range map[*Vector]uint64{base: 0xabcd, a: 1, b: 1} {
		if err := v.Store(fill(val)); err != nil {
			t.Fatal(err)
		}
	}
	low, err := base.View(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	before := sys.SystemStats()
	if _, err := sys.Run("addition", low, a, b); !errors.Is(err, ErrReadOnlyView) {
		t.Errorf("addition into a view: err %v, want ErrReadOnlyView", err)
	}
	prog := isa.Program{{Op: isa.FromOp(ops.OpAdd), Dst: low.Handle(), Src: [3]uint16{a.Handle(), b.Handle()}, Size: uint32(n), Width: 8}}
	if _, err := sys.ExecBatch(prog); !errors.Is(err, ErrReadOnlyView) {
		t.Errorf("batch writing a view: err %v, want ErrReadOnlyView", err)
	}
	if err := low.Store(fill(2)); !errors.Is(err, ErrReadOnlyView) {
		t.Errorf("Store into a view: err %v, want ErrReadOnlyView", err)
	}
	if after := sys.SystemStats(); after != before {
		t.Errorf("rejected writes changed the System's stats: %+v, before %+v", after, before)
	}
	got, err := base.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0xabcd {
			t.Fatalf("element %d of the base reads %#x after rejected writes, want 0xabcd", i, v)
		}
	}
}
