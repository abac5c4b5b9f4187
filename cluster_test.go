package simdram

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"simdram/internal/ctrl"
	"simdram/internal/dram"
	"simdram/internal/isa"
	"simdram/internal/ops"
)

// testClusterConfig shrinks the per-channel geometry the way testSystem
// does, with enough rows for multi-vector hazard programs.
func testClusterConfig(channels int) ClusterConfig {
	cfg := DefaultConfig()
	cfg.DRAM.Cols = 256
	cfg.DRAM.RowsPerSubarray = 256
	cfg.DRAM.Banks = 2
	cfg.DRAM.SubarraysPerBank = 2
	return ClusterConfig{Channels: channels, Channel: cfg}
}

func testCluster(t testing.TB, channels int) *Cluster {
	t.Helper()
	c, err := NewCluster(testClusterConfig(channels))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func clusterBbop(code ops.Code, dst, a, b *ShardedVector) isa.Instruction {
	return isa.Instruction{
		Op:    isa.FromOp(code),
		Dst:   dst.Handle(),
		Src:   [3]uint16{a.Handle(), b.Handle()},
		Size:  uint32(dst.Len()),
		Width: uint8(a.Width()),
	}
}

func TestClusterScatterGatherRoundtrip(t *testing.T) {
	c := testCluster(t, 3)
	rng := rand.New(rand.NewSource(31))
	// Deliberately uneven: spans of different sizes on every channel.
	n, w := 2*256+41, 16
	v, err := c.AllocShardedVector(n, w)
	if err != nil {
		t.Fatal(err)
	}
	data := randVals(rng, n, w)
	if err := v.Store(data); err != nil {
		t.Fatal(err)
	}
	got, err := v.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("element %d: got %d, want %d", i, got[i], data[i])
		}
	}
	v.Free()
	if _, err := v.Load(); err == nil {
		t.Error("load from freed sharded vector must fail")
	}
}

// TestClusterDifferential runs a hazard-rich program on a 3-channel
// cluster and on one System holding all the data; the results must be
// bit-identical.
func TestClusterDifferential(t *testing.T) {
	ccfg := testClusterConfig(3)
	n, w := 3*256+41, 16
	rng := rand.New(rand.NewSource(33))
	av, bv := randVals(rng, n, w), randVals(rng, n, w)

	// Single-System reference.
	sys, err := New(ccfg.Channel)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	salloc := func() *Vector {
		v, err := sys.AllocVector(n, w)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	sa, sb := salloc(), salloc()
	s1, s2, s3, s4 := salloc(), salloc(), salloc(), salloc()
	if err := sa.Store(av); err != nil {
		t.Fatal(err)
	}
	if err := sb.Store(bv); err != nil {
		t.Fatal(err)
	}
	sbbop := func(code ops.Code, dst, x, y *Vector) isa.Instruction {
		return isa.Instruction{Op: isa.FromOp(code), Dst: dst.Handle(),
			Src: [3]uint16{x.Handle(), y.Handle()}, Size: uint32(n), Width: uint8(w)}
	}
	sprog := isa.Program{
		sbbop(ops.OpAdd, s1, sa, sb),
		sbbop(ops.OpSub, s2, sa, sb),
		sbbop(ops.OpAdd, s3, s1, s2),
		sbbop(ops.OpSub, s4, s3, sa),
		sbbop(ops.OpAdd, s1, s4, sb), // WAW/WAR on s1
	}
	if _, err := sys.ExecBatch(sprog); err != nil {
		t.Fatal(err)
	}

	// Sharded execution of the same program shape.
	c, err := NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	calloc := func() *ShardedVector {
		v, err := c.AllocShardedVector(n, w)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	ca, cb := calloc(), calloc()
	c1, c2, c3, c4 := calloc(), calloc(), calloc(), calloc()
	if err := ca.Store(av); err != nil {
		t.Fatal(err)
	}
	if err := cb.Store(bv); err != nil {
		t.Fatal(err)
	}
	cprog := isa.Program{
		clusterBbop(ops.OpAdd, c1, ca, cb),
		clusterBbop(ops.OpSub, c2, ca, cb),
		clusterBbop(ops.OpAdd, c3, c1, c2),
		clusterBbop(ops.OpSub, c4, c3, ca),
		clusterBbop(ops.OpAdd, c1, c4, cb),
	}
	st, err := c.ExecBatch(cprog)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != int64(len(cprog)*3) {
		t.Errorf("Instructions = %d, want %d (every channel executes its shard of each instruction)",
			st.Instructions, len(cprog)*3)
	}
	if st.CriticalPathNs <= 0 || st.BusyNs < st.CriticalPathNs {
		t.Errorf("latency accounting broken: busy %f, critical path %f", st.BusyNs, st.CriticalPathNs)
	}
	if len(st.ChannelUtilization) != 3 {
		t.Fatalf("utilization has %d entries, want 3", len(st.ChannelUtilization))
	}
	maxUtil := 0.0
	for _, u := range st.ChannelUtilization {
		if u > maxUtil {
			maxUtil = u
		}
	}
	if math.Abs(maxUtil-1) > 1e-12 {
		t.Errorf("the bounding channel must have utilization 1, got max %f", maxUtil)
	}

	for i, pair := range [][2]interface{ Load() ([]uint64, error) }{
		{c1, s1}, {c2, s2}, {c3, s3}, {c4, s4},
	} {
		got, err := pair[0].Load()
		if err != nil {
			t.Fatal(err)
		}
		want, err := pair[1].Load()
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("output %d element %d: cluster %d, single-system %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestClusterTimingMergeSemantics checks the honest-merge rules on a
// bank-disjoint workload: busy time adds across channels, the makespan
// is the per-channel critical path (not the sum), and a balanced shard
// reports zero utilization skew.
func TestClusterTimingMergeSemantics(t *testing.T) {
	c := testCluster(t, 2)
	dcfg := c.Config().Channel.DRAM
	n, w := dcfg.Cols*2, 8 // exactly one segment per channel
	rng := rand.New(rand.NewSource(35))
	var prog isa.Program
	for bank := 0; bank < dcfg.Banks; bank++ {
		for sub := 0; sub < dcfg.SubarraysPerBank; sub++ {
			alloc := func() *ShardedVector {
				v, err := c.AllocShardedVectorAt(n, w, bank, sub)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			a, b, dst := alloc(), alloc(), alloc()
			if err := a.Store(randVals(rng, n, w)); err != nil {
				t.Fatal(err)
			}
			if err := b.Store(randVals(rng, n, w)); err != nil {
				t.Fatal(err)
			}
			prog = append(prog, clusterBbop(ops.OpAdd, dst, a, b))
		}
	}
	st, err := c.ExecBatch(prog)
	if err != nil {
		t.Fatal(err)
	}
	// 4 instructions per channel over 2 banks: critical path 2 slots,
	// serial equivalent 4 slots per channel × 2 channels = 8 slots.
	if got, want := st.Speedup(), 4.0; math.Abs(got-want) > 0.01 {
		t.Errorf("bank-disjoint 2-channel speedup = %f, want %f", got, want)
	}
	if st.UtilizationSkew() > 1e-9 {
		t.Errorf("balanced shard must have zero skew, got %f (utilization %v)",
			st.UtilizationSkew(), st.ChannelUtilization)
	}
}

func TestClusterShardAlignment(t *testing.T) {
	c := testCluster(t, 2)
	n, w := 101, 8 // odd split: channel 0 gets the bigger chunk
	a, err := c.AllocShardedVector(n, w)
	if err != nil {
		t.Fatal(err)
	}
	// Changing channel 0's load between allocations must not move the
	// next vector's placement: its plan depends only on its length.
	if _, err := c.Channel(0).AllocVector(16, 32); err != nil {
		t.Fatal(err)
	}
	b, err := c.AllocShardedVector(n, w)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.AllocShardedVector(n, w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ad, bd := randVals(rng, n, w), randVals(rng, n, w)
	if err := a.Store(ad); err != nil {
		t.Fatal(err)
	}
	if err := b.Store(bd); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run("addition", dst, a, b); err != nil {
		t.Fatalf("same-length operands must execute: %v", err)
	}
	got, err := dst.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := (ad[i] + bd[i]) & 0xff; got[i] != want {
			t.Fatalf("element %d = %d, want %d", i, got[i], want)
		}
	}

	short, err := c.AllocShardedVector(n-1, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := short.Store(make([]uint64, n-1)); err != nil {
		t.Fatal(err)
	}
	_, err = c.Run("addition", dst, a, short)
	if err == nil || !strings.Contains(err.Error(), "101 elements") || !strings.Contains(err.Error(), "has 100") {
		t.Errorf("operands of different lengths must be rejected naming both counts, got: %v", err)
	}
}

// TestClusterCompileRejectsMisalignedShardLeaves compiles an addition
// of two sharded vectors of one length placed at different banks: the
// Cluster compiler must reject them as System.Compile rejects
// misaligned Vector leaves, before any channel issues a DRAM command.
func TestClusterCompileRejectsMisalignedShardLeaves(t *testing.T) {
	c := testCluster(t, 2)
	a, err := c.AllocShardedVectorAt(100, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AllocShardedVectorAt(100, 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]dram.Stats, c.Channels())
	for i := range before {
		before[i] = c.Channel(i).Module().Stats()
	}
	_, err = c.Compile(c.Lazy(a).Add(c.Lazy(b)))
	if err == nil || !strings.Contains(err.Error(), "not segment-aligned") {
		t.Fatalf("Compile of misaligned shard leaves returned %v, want a segment-alignment error", err)
	}
	for i, s := range before {
		if got := c.Channel(i).Module().Stats(); got != s {
			t.Errorf("channel %d: a rejected compile issued commands: stats %+v, were %+v", i, got, s)
		}
	}
}

// TestClusterRunRejectsFreedOperands guards the handle-recycling
// hazard: a freed vector's handle may already name a newer object, so
// Run must reject the stale pointer instead of resolving its handle.
func TestClusterRunRejectsFreedOperands(t *testing.T) {
	c := testCluster(t, 2)
	n, w := 64, 8
	stale, err := c.AllocShardedVector(n, w)
	if err != nil {
		t.Fatal(err)
	}
	stale.Free()
	// Once the fresh handle range runs out, a stale handle can name a
	// newer object — the pointer-level freed guard must catch it first.
	b, err := c.AllocShardedVector(n, w)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.AllocShardedVector(n, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Store(make([]uint64, n)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run("addition", dst, stale, b); err == nil || !strings.Contains(err.Error(), "freed") {
		t.Errorf("freed source must be rejected, got: %v", err)
	}
	if _, err := c.Run("addition", stale, b, b); err == nil || !strings.Contains(err.Error(), "freed") {
		t.Errorf("freed destination must be rejected, got: %v", err)
	}

	// Handles are also scoped per cluster: a vector from another
	// cluster would resolve to whatever object shares its handle here.
	other := testCluster(t, 2)
	foreign, err := other.AllocShardedVector(n, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run("addition", dst, foreign, b); err == nil || !strings.Contains(err.Error(), "different cluster") {
		t.Errorf("foreign source must be rejected, got: %v", err)
	}
	if _, err := c.Run("addition", foreign, b, b); err == nil || !strings.Contains(err.Error(), "different cluster") {
		t.Errorf("foreign destination must be rejected, got: %v", err)
	}
}

// TestClusterPrepareFailurePartialResults induces a single-channel failure
// (exhausted scratch rows on channel 1) and checks the contract: the
// joined error names the failing channel, the failing channel's shard
// is untouched, and every other element is either untouched or carries
// the bit-exact result — nothing in between.
func TestClusterPrepareFailurePartialResults(t *testing.T) {
	c := testCluster(t, 3)
	dcfg := c.Config().Channel.DRAM
	cols := dcfg.Cols
	n, w := 3*cols, 8 // one full segment per channel, spans hardcoded below
	rng := rand.New(rand.NewSource(37))
	alloc := func() *ShardedVector {
		v, err := c.AllocShardedVector(n, w)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b, dst := alloc(), alloc(), alloc()
	av, bv := randVals(rng, n, w), randVals(rng, n, w)
	sentinel := make([]uint64, n)
	for i := range sentinel {
		sentinel[i] = uint64(i) & 0xFF
	}
	if err := a.Store(av); err != nil {
		t.Fatal(err)
	}
	if err := b.Store(bv); err != nil {
		t.Fatal(err)
	}
	if err := dst.Store(sentinel); err != nil {
		t.Fatal(err)
	}

	// Exhaust the scratch tail of (0,0) on channel 1, where its shards
	// live: subtraction's μProgram needs scratch rows there, so that
	// channel cannot be prepared.
	failing := c.Channel(1)
	for {
		if _, err := failing.AllocVectorAt(cols, 1, 0, 0); err != nil {
			break
		}
	}

	_, err := c.Run("subtraction", dst, a, b)
	if err == nil {
		t.Fatal("single-channel failure must surface")
	}
	if !strings.Contains(err.Error(), "channel 1") {
		t.Errorf("error must name the failing channel, got: %v", err)
	}
	if !strings.Contains(err.Error(), "scratch") {
		t.Errorf("error must carry the channel's own failure, got: %v", err)
	}

	got, err := dst.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := (av[i] - bv[i]) & 0xFF
		switch {
		case i >= cols && i < 2*cols: // channel 1's shard
			if got[i] != sentinel[i] {
				t.Fatalf("failing channel's element %d changed: got %d, sentinel %d", i, got[i], sentinel[i])
			}
		case got[i] != want && got[i] != sentinel[i]:
			t.Fatalf("element %d is neither the result (%d) nor untouched (%d): got %d",
				i, want, sentinel[i], got[i])
		}
	}
}

// TestExecBatchCancelFacade drives the facade-level cancellation path
// the cluster relies on: a pre-closed cancel signal makes a prepared
// program's run skip every instruction and report ErrCanceled, leaving DRAM
// untouched.
func TestExecBatchCancelFacade(t *testing.T) {
	sys := testSystem(t)
	n, w := 64, 8
	rng := rand.New(rand.NewSource(41))
	a, _ := sys.AllocVector(n, w)
	b, _ := sys.AllocVector(n, w)
	dst, _ := sys.AllocVector(n, w)
	if err := a.Store(randVals(rng, n, w)); err != nil {
		t.Fatal(err)
	}
	if err := b.Store(randVals(rng, n, w)); err != nil {
		t.Fatal(err)
	}
	sentinel := randVals(rng, n, w)
	if err := dst.Store(sentinel); err != nil {
		t.Fatal(err)
	}
	prog := isa.Program{{
		Op:    isa.FromOp(ops.OpAdd),
		Dst:   dst.Handle(),
		Src:   [3]uint16{a.Handle(), b.Handle()},
		Size:  uint32(n),
		Width: uint8(w),
	}}
	cancel := make(chan struct{})
	close(cancel)
	pp, err := sys.prepareProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.runPrepared(pp, cancel)
	if !errors.Is(err, ctrl.ErrCanceled) {
		t.Fatalf("pre-canceled batch must report ErrCanceled, got: %v", err)
	}
	got, err := dst.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != sentinel[i] {
			t.Fatalf("canceled batch must not touch the destination: element %d changed", i)
		}
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Channels: 0, Channel: DefaultConfig()}); err == nil {
		t.Error("zero channels must be rejected")
	}
	bad := testClusterConfig(2)
	bad.Channel.DRAM.Banks = 0
	if _, err := NewCluster(bad); err == nil {
		t.Error("invalid channel geometry must be rejected")
	}
}
