package simdram

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"simdram/internal/isa"
	"simdram/internal/testoracle"
	"simdram/internal/verify"
)

// chainExpr builds a deep dependence chain whose intermediates each
// die immediately after their single use — the shape that makes the
// liveness-driven slot pool reuse temporary rows, and with them the
// WAR/WAW hazards the scheduler's dependence graph must order.
func chainExpr(t *testing.T, sys *System, rng *rand.Rand, n, width, depth int) *Expr {
	t.Helper()
	alloc := func() *Expr {
		v, err := sys.AllocVector(n, width)
		if err != nil {
			t.Fatal(err)
		}
		storeRand(t, rng, v)
		return sys.Lazy(v)
	}
	a, b := alloc(), alloc()
	e := a.Apply("addition", b)
	for i := 0; i < depth; i++ {
		if i%2 == 0 {
			e = e.Apply("subtraction", a)
		} else {
			e = e.Apply("addition", b)
		}
	}
	return e
}

// TestVerifyRealCompiledProgram takes a genuinely compiled plan —
// lowered through constant folding, CSE, slot pooling, and the list
// scheduler — and checks that (a) the real program verifies clean
// against the object tracker's bindings and the scheduler's own
// dependence graph, and (b) seeded corruptions of that same real
// program are each rejected with a typed, located diagnostic.
func TestVerifyRealCompiledProgram(t *testing.T) {
	sys := testGraphSystem(t)
	defer sys.Close()
	rng := rand.New(rand.NewSource(7))

	cp, err := sys.Compile(chainExpr(t, sys, rng, 64, 8, 12))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Free()
	prog := cp.lw.prog
	if len(prog) < 3 {
		t.Fatalf("compiled chain too short to corrupt: %d instructions", len(prog))
	}

	// The pristine program must verify clean with the exact dependence
	// graph the batched engine executes with.
	deps := prog.Deps()
	if err := verify.Program(prog, sys.verifyOptions(newVerifyScratch(), prog, deps, cp.lw)); err != nil {
		t.Fatalf("real compiled program rejected: %v", err)
	}

	corrupt := []struct {
		name     string
		mutate   func(p isa.Program, deps [][]int)
		check    verify.Check
		contains string
	}{
		{
			name:     "dependence edges dropped on last instruction",
			mutate:   func(p isa.Program, deps [][]int) { deps[len(deps)-1] = nil },
			check:    verify.CheckHazard,
			contains: "-after-",
		},
		{
			name:   "source retargeted to a dead handle",
			mutate: func(p isa.Program, deps [][]int) { p[len(p)-1].Src[0] = 0xFFF0 },
			check:  verify.CheckObject,
		},
		{
			name:   "zero-size instruction",
			mutate: func(p isa.Program, deps [][]int) { p[1].Size = 0 },
			check:  verify.CheckEncoding,
		},
		{
			name: "destination aliased onto its own source",
			mutate: func(p isa.Program, deps [][]int) {
				last := &p[len(p)-1]
				last.Dst = last.Src[0]
			},
			check:    verify.CheckAlias,
			contains: "same object",
		},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			p := cp.Program() // fresh copy per corruption
			d := append([][]int(nil), p.Deps()...)
			tc.mutate(p, d)
			err := verify.Program(p, sys.verifyOptions(newVerifyScratch(), p, d, cp.lw))
			var diag *verify.Diagnostic
			if !errors.As(err, &diag) {
				t.Fatalf("corruption %q not rejected with a *verify.Diagnostic: %v", tc.name, err)
			}
			for _, got := range testoracle.Diagnostics(err) {
				if got.Check == tc.check && (tc.contains == "" || strings.Contains(got.Error(), tc.contains)) {
					return
				}
			}
			t.Fatalf("no %s diagnostic (contains %q) in: %v", tc.check, tc.contains, err)
		})
	}
}

// TestSlotReuseHazardRegression pins the latent-hazard invariant of
// liveness-driven slot pooling: reusing a temporary row slot for a new
// value creates WAR/WAW hazards that exist ONLY because of the reuse,
// and the scheduler's dependence graph must carry edges ordering them.
// The test compiles a chain whose slot pool provably reuses rows,
// finds a reused slot's second write, deletes its dependence edges,
// and requires the verifier to catch the now-unordered hazard.
func TestSlotReuseHazardRegression(t *testing.T) {
	sys := testGraphSystem(t)
	defer sys.Close()
	rng := rand.New(rand.NewSource(9))

	cp, err := sys.Compile(chainExpr(t, sys, rng, 64, 8, 12))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Free()
	if st := cp.Stats(); st.TempRowsPooled >= st.TempRowsNaive {
		t.Fatalf("chain did not trigger slot reuse: pooled %d rows, naive %d",
			st.TempRowsPooled, st.TempRowsNaive)
	}

	prog := cp.Program()
	// A reused slot shows up as one destination handle written by two
	// different instructions.
	writer := map[uint16]int{}
	second := -1
	var slot uint16
	for i, in := range prog {
		ws := in.Writes()
		if len(ws) == 0 {
			continue
		}
		h := ws[0]
		if _, again := writer[h]; again {
			second, slot = i, h
			break
		}
		writer[h] = i
	}
	if second < 0 {
		t.Fatal("no temporary slot written twice despite pooled rows < naive rows")
	}

	deps := prog.Deps()
	if len(deps[second]) == 0 {
		t.Fatalf("scheduler emitted no dependence edges for the reusing write at %d", second)
	}
	deps[second] = nil // simulate a scheduler that forgot the reuse hazards
	err = verify.Program(prog, sys.verifyOptions(newVerifyScratch(), prog, deps, cp.lw))
	var diag *verify.Diagnostic
	if !errors.As(err, &diag) {
		t.Fatalf("unordered slot-reuse hazard on handle %d not rejected: %v", slot, err)
	}
	found := false
	for _, d := range testoracle.Diagnostics(err) {
		if d.Check == verify.CheckHazard && d.Instr == second {
			found = true
			if !strings.Contains(d.Error(), "write-after") && !strings.Contains(d.Error(), "read-after-write") {
				t.Fatalf("hazard diagnostic does not name the hazard kind: %v", d)
			}
		}
	}
	if !found {
		t.Fatalf("no hazard diagnostic at the reusing write %d: %v", second, err)
	}
}

// TestDefaultsVerifyPlans checks that plan verification needs no
// setting: a System, a Cluster and a Server built from their defaults
// each pass a batch-prepared program and a compiled one through the IR
// verifier, and so does a System's single-instruction Exec.
func TestDefaultsVerifyPlans(t *testing.T) {
	raises := func(t *testing.T, what string, verified func() int64, run func() error) {
		t.Helper()
		before := verified()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if verified() == before {
			t.Errorf("%s verified no plan", what)
		}
	}
	t.Run("System", func(t *testing.T) {
		sys := testSystem(t)
		t.Cleanup(sys.Close)
		rng := rand.New(rand.NewSource(5))
		prog, vecs := randomHazardProgram(t, rng, sys, 300, 8, 4, 16)
		raises(t, "ExecBatch", sys.VerifiedPlans, func() error {
			_, err := sys.ExecBatch(prog)
			return err
		})
		raises(t, "Exec", sys.VerifiedPlans, func() error {
			for _, in := range prog {
				if in.Op != isa.OpTrspInit {
					_, err := sys.Exec(in)
					return err
				}
			}
			return errors.New("program has no operation")
		})
		raises(t, "Run", sys.VerifiedPlans, func() error {
			_, err := sys.Run("addition", vecs[2], vecs[0], vecs[1])
			return err
		})
		raises(t, "Compile + Execute", sys.VerifiedPlans, func() error {
			cp, err := sys.Compile(chainExpr(t, sys, rng, 300, 8, 4))
			if err != nil {
				return err
			}
			defer cp.Free()
			_, err = cp.Execute()
			return err
		})
	})

	t.Run("Cluster", func(t *testing.T) {
		c := testCluster(t, 2)
		prog, vecs := clusterHazardProgram(t, c, 5)
		raises(t, "ExecBatch", c.VerifiedPlans, func() error {
			_, err := c.ExecBatch(prog)
			return err
		})
		raises(t, "Compile + Execute", c.VerifiedPlans, func() error {
			cp, err := c.Compile(c.Lazy(vecs[0]).Apply("addition", c.Lazy(vecs[1])))
			if err != nil {
				return err
			}
			defer cp.Free()
			_, err = cp.Execute()
			return err
		})
	})

	t.Run("Server", func(t *testing.T) {
		srv := testServer(t, 1, nil)
		if _, verified := memoJob(t, srv, memoShape(rand.New(rand.NewSource(5)))); verified == 0 {
			t.Error("SubmitJob verified no plan")
		}
	})
}
