package simdram

// Tests for Cluster.ExecBatch's prepared-program memo: a replayed
// program must be indistinguishable from preparing it anew, and any
// drift that could make the prepared form stale must send the call down
// the unprepared path before a single channel issues a command.

import (
	"reflect"
	"slices"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/isa"
	"simdram/internal/ops"
	"simdram/internal/raceflag"
)

// traceCluster runs exec with a command log on every subarray of every
// channel and returns the logs, channel-major.
func traceCluster(c *Cluster, exec func()) []*[]dram.Command {
	var logs []*[]dram.Command
	for i := 0; i < c.Channels(); i++ {
		logs = append(logs, attachTracers(c.Channel(i))...)
	}
	exec()
	for i := 0; i < c.Channels(); i++ {
		detachTracers(c.Channel(i))
	}
	return logs
}

// loadLive gathers every vector that has not been freed, whole or in
// part.
func loadLive(t *testing.T, vecs []*ShardedVector) [][]uint64 {
	t.Helper()
	out := make([][]uint64, len(vecs))
	for i, v := range vecs {
		if v.freed || slices.ContainsFunc(v.parts, func(p *Vector) bool { return p.freed }) {
			continue
		}
		vals, err := v.Load()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = vals
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestClusterExecBatchMemoDifferential replays one hazard-rich program
// through the memo and runs every call's program on a freshly built
// cluster holding the same data. Stats, per-subarray command traces and
// results must be identical, and every call after the first must replay
// the first call's prepared form.
func TestClusterExecBatchMemoDifferential(t *testing.T) {
	const seed, channels, calls = 31, 4, 4
	c := testCluster(t, channels)
	prog, vecs := clusterHazardProgram(t, c, seed)
	var first *shardedProgram
	var verified int64
	for call := 0; call < calls; call++ {
		ref := testCluster(t, channels)
		refProg, refVecs := clusterHazardProgram(t, ref, seed)
		for i, vals := range loadLive(t, vecs) {
			if err := refVecs[i].Store(vals); err != nil {
				t.Fatal(err)
			}
		}

		var st, refSt ClusterBatchStats
		var err, refErr error
		logs := traceCluster(c, func() { st, err = c.ExecBatch(prog) })
		refLogs := traceCluster(ref, func() { refSt, refErr = ref.ExecBatch(refProg) })
		if err != nil || refErr != nil {
			t.Fatalf("call %d: memo %v, fresh %v", call, err, refErr)
		}
		if !reflect.DeepEqual(st, refSt) {
			t.Errorf("call %d: stats diverge: memo %+v, fresh %+v", call, st, refSt)
		}
		compareTraces(t, "memo vs fresh", refLogs, logs)
		want, got := loadLive(t, refVecs), loadLive(t, vecs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: memo results diverge from a freshly prepared cluster", call)
		}

		if c.memo == nil {
			t.Fatalf("call %d: no memo entry after a successful ExecBatch", call)
		}
		if call == 0 {
			first, verified = c.memo.sp, c.VerifiedPlans()
		} else if c.memo.sp != first {
			t.Fatalf("call %d prepared the program again instead of replaying the memo", call)
		}
	}
	if got := c.VerifiedPlans(); got != verified {
		t.Errorf("replays verified again: VerifiedPlans %d after the first call, %d after %d calls", verified, got, calls)
	}
}

// TestClusterExecBatchMemoInvalidation drifts the cluster between two
// calls in every way that stales the memo entry. Each case runs on two
// identically built clusters: one with its memo entry in place, one
// with it dropped (the unprepared path). Results, stats, traces and
// error text must match, and on a failing call no channel may issue a
// command.
func TestClusterExecBatchMemoInvalidation(t *testing.T) {
	const seed, channels = 43, 4
	cases := []struct {
		name    string
		drift   func(c *Cluster, prog isa.Program, vecs []*ShardedVector)
		wantErr bool
	}{
		{"operand freed", func(c *Cluster, prog isa.Program, vecs []*ShardedVector) {
			vecs[1].Free()
		}, true},
		{"operand part replaced on one channel", func(c *Cluster, prog isa.Program, vecs []*ShardedVector) {
			part := vecs[1].parts[0]
			part.Free()
			// Exhaust the fresh handle range, as a long-lived channel
			// does, so the next allocation recycles the part's handle.
			part.sys.handles.next = ^uint16(0)
			v, err := part.sys.AllocVector(part.Len(), part.Width())
			if err != nil {
				t.Fatal(err)
			}
			if v.Handle() != part.Handle() {
				t.Fatalf("new vector has handle %d, want the freed part's %d", v.Handle(), part.Handle())
			}
		}, false},
		{"program mutated in place", func(c *Cluster, prog isa.Program, vecs []*ShardedVector) {
			prog[1].Op = isa.FromOp(ops.OpAdd)
			prog[3].Src[1] = vecs[1].Handle()
		}, false},
		{"scratch tail claimed", func(c *Cluster, prog isa.Program, vecs []*ShardedVector) {
			cols := c.Config().Channel.DRAM.Cols
			for {
				if _, err := c.Channel(1).AllocVector(cols, 1); err != nil {
					return
				}
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*Cluster, isa.Program, []*ShardedVector, *shardedProgram) {
				c := testCluster(t, channels)
				prog, vecs := clusterHazardProgram(t, c, seed)
				if _, err := c.ExecBatch(prog); err != nil {
					t.Fatal(err)
				}
				sp := c.memo.sp
				tc.drift(c, prog, vecs)
				return c, prog, vecs, sp
			}
			c, prog, vecs, stale := build()
			ref, refProg, refVecs, _ := build()
			ref.memo = nil
			verified := c.VerifiedPlans()

			var st, refSt ClusterBatchStats
			var err, refErr error
			logs := traceCluster(c, func() { st, err = c.ExecBatch(prog) })
			refLogs := traceCluster(ref, func() { refSt, refErr = ref.ExecBatch(refProg) })
			if errText(err) != errText(refErr) {
				t.Fatalf("memo error %q, unprepared path %q", errText(err), errText(refErr))
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("error = %v, want error: %v", err, tc.wantErr)
			}
			if !reflect.DeepEqual(st, refSt) {
				t.Errorf("stats diverge: memo %+v, unprepared %+v", st, refSt)
			}
			if err != nil {
				for i, log := range logs {
					if len(*log) != 0 {
						t.Fatalf("subarray %d issued %d commands on a failing call", i, len(*log))
					}
				}
			} else {
				compareTraces(t, tc.name, refLogs, logs)
				if c.memo == nil || c.memo.sp == stale {
					t.Fatal("a stale memo entry was replayed or not replaced")
				}
				if c.VerifiedPlans() == verified {
					t.Error("the re-prepared program was not verified")
				}
			}
			if !reflect.DeepEqual(loadLive(t, vecs), loadLive(t, refVecs)) {
				t.Fatal("memo results diverge from the unprepared path")
			}
		})
	}
}

// TestClusterExecBatchMemoRelease checks that the memo does not keep a
// program's objects alive: freeing a vector the program names drops the
// entry, freeing an unrelated one keeps it, and Close drops it.
func TestClusterExecBatchMemoRelease(t *testing.T) {
	c := testCluster(t, 4)
	prog, vecs := clusterHazardProgram(t, c, 53)
	other, err := c.AllocShardedVector(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecBatch(prog); err != nil {
		t.Fatal(err)
	}
	if other.Free(); c.memo == nil {
		t.Fatal("freeing a vector the program does not name dropped the memo entry")
	}
	if vecs[0].Free(); c.memo != nil {
		t.Fatal("freeing a vector the program names kept the memo entry")
	}
	if _, err := c.ExecBatch(prog); err == nil {
		t.Fatal("a program naming a freed vector ran")
	}
	prog, _ = clusterHazardProgram(t, c, 59)
	if _, err := c.ExecBatch(prog); err != nil {
		t.Fatal(err)
	}
	if c.Close(); c.memo != nil {
		t.Fatal("Close kept the memo entry")
	}
}

// TestClusterExecBatchMemoAllocs bounds a memo hit's allocations: the
// per-channel dispatch goroutines and the two per-channel slices
// ClusterBatchStats hands the caller, nothing proportional to the
// program.
func TestClusterExecBatchMemoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	c := testCluster(t, 4)
	prog, _ := clusterHazardProgram(t, c, 47)
	if _, err := c.ExecBatch(prog); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.ExecBatch(prog); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("memo hit made %.0f allocations per call, want at most 20", allocs)
	}
}
