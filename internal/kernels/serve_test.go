package kernels

import (
	"context"
	"math/bits"
	"testing"

	"simdram"
	"simdram/internal/workload"
)

// kernelServer returns a small 2-channel server with enough data rows
// for the lazy kernel pipelines.
func kernelServer(t testing.TB) *simdram.Server {
	t.Helper()
	cfg := simdram.DefaultServerConfig(2)
	cfg.Channel.DRAM.Cols = 256
	cfg.Channel.DRAM.Banks = 2
	cfg.Channel.DRAM.SubarraysPerBank = 2
	srv, err := simdram.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// serve submits the expression as one job of tenant and returns its
// result, failing the test on any error.
func serve(t *testing.T, srv *simdram.Server, tenant string, e *simdram.Expr) *simdram.JobResult {
	t.Helper()
	fut, err := srv.SubmitJob(context.Background(), simdram.JobSpec{Tenant: tenant}, e)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBrightnessServerMatchesRefAndEager(t *testing.T) {
	srv := kernelServer(t)
	defer srv.Close()
	img := workload.NewImage(20, 25, 1)
	for _, delta := range []int{40, 200, -60, -300, 0} {
		res := serve(t, srv, "imaging", BrightnessExpr(img.Pixels, delta))
		got := res.Values[0]
		want := BrightnessRef(img, delta)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delta %d pixel %d: served=%d ref=%d (in=%d)", delta, i, got[i], want[i], img.Pixels[i])
			}
		}
		if res.Batch.Instructions == 0 {
			t.Error("served kernel must account batch instructions")
		}

		// The eager one-System.Run-per-operation version must agree too.
		sys := kernelSystem(t)
		eager, _, err := brightnessSIMDRAM(sys, img, delta)
		if err != nil {
			t.Fatalf("eager delta %d: %v", delta, err)
		}
		for i := range want {
			if got[i] != eager[i] {
				t.Fatalf("delta %d pixel %d: served=%d eager=%d", delta, i, got[i], eager[i])
			}
		}
		sys.Close()
	}
	// The delta constant is part of the shape, so each delta above was
	// a cold compile — but repeating a delta with a fresh image is the
	// same shape and must hit the cache.
	img2 := workload.NewImage(20, 25, 7)
	res := serve(t, srv, "imaging", BrightnessExpr(img2.Pixels, 40))
	got := res.Values[0]
	if !res.Compile.CacheHit {
		t.Errorf("repeated brightness shape should hit the plan cache: %+v", srv.Stats().Cache)
	}
	want := BrightnessRef(img2, 40)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cached-plan pixel %d: served=%d ref=%d", i, got[i], want[i])
		}
	}
}

func TestBitWeavingServerMatchesRef(t *testing.T) {
	srv := kernelServer(t)
	defer srv.Close()
	codes := workload.Codes(900, 4, 3)
	for _, c := range []uint64{9, 3, 15} {
		got := 0
		for _, v := range serve(t, srv, "analytics", BitWeavingLtExpr(codes, c, 4)).Values[0] {
			got += bits.OnesCount64(v & 1)
		}
		if want := BitWeavingLtRef(codes, c); got != want {
			t.Fatalf("lt scan c=%d: served=%d ref=%d", c, got, want)
		}
	}
	// All three scans share one shape (the constant is part of the
	// shape, so only the first compile of each constant is cold — the
	// codes payload is not).
	st := srv.Stats()
	if st.Completed != 3 {
		t.Fatalf("completed %d jobs, want 3", st.Completed)
	}
}

func TestTPCHQ6ServerMatchesRefAndEager(t *testing.T) {
	srv := kernelServer(t)
	defer srv.Close()
	table := workload.NewLineItem(700, 2)
	p := DefaultQ6()
	res := serve(t, srv, "warehouse", TPCHQ6Expr(table, p))
	got := sum(res.Values[0])
	want := TPCHQ6Ref(table, p)
	if got != want {
		t.Fatalf("revenue: served=%d ref=%d", got, want)
	}
	if want == 0 {
		t.Fatal("test data selects no rows; predicate too tight to be meaningful")
	}
	if res.Compile.CacheHit {
		t.Error("first Q6 request cannot be a cache hit")
	}

	sys := kernelSystem(t)
	defer sys.Close()
	eager, _, err := TPCHQ6SIMDRAM(sys, table, p)
	if err != nil {
		t.Fatal(err)
	}
	if got != eager {
		t.Fatalf("revenue: served=%d eager=%d", got, eager)
	}

	// A second request with fresh row data is the same shape: plan
	// cache hit, identical reference agreement.
	table2 := workload.NewLineItem(700, 9)
	res2 := serve(t, srv, "warehouse", TPCHQ6Expr(table2, p))
	got2 := sum(res2.Values[0])
	if want2 := TPCHQ6Ref(table2, p); got2 != want2 {
		t.Fatalf("second revenue: served=%d ref=%d", got2, want2)
	}
	if !res2.Compile.CacheHit {
		t.Error("second Q6 request with the same shape should hit the plan cache")
	}
}

// sum is Q6's host-side fold over the selected revenue column.
func sum(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}
