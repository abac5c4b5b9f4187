package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"simdram"
)

// serveWorkload is serve-hot or serve-adhoc: closed-loop clients, one
// job in flight each, submitting pooled requests to a 2-channel Server
// with plan verification on.
type serveWorkload struct {
	adhoc bool
	cfg   simdram.ServerConfig
	srv   *simdram.Server

	// setupReqs run serially during set-up; pool is what warm-up and
	// the measured window cycle through, client c taking entries c,
	// c+clients, c+2·clients, … so each entry belongs to one client.
	setupReqs []request
	pool      []request
	next      []int
	book      *book

	// shapes are representative request shapes for the ledger.
	shapes []dag

	// traceLats collects, per client, each traced job's trace ID and
	// client-side latency (traced twins only).
	traceLats [][]traceLat
}

// request is one pooled job: its expressions and the hash of the
// golden result it must produce.
type request struct {
	exprs []*simdram.Expr
	want  uint64
}

type traceLat struct {
	id  uint64
	lat time.Duration
}

const (
	serveClients   = 2
	serveChannels  = 2
	serveCols      = 256  // request-sized lanes, as the serving demo uses
	hotElems       = 2048 // serve-hot payload length: 8 segments over 4 banks
	hotPool        = 256  // serve-hot requests, 64 of each shape
	adhocElems     = 256  // serve-adhoc payload length: one segment
	adhocPool      = 4096 // distinct serve-adhoc DAGs
	adhocPayloads  = 64   // payload sets the serve-adhoc DAGs share
	adhocInputs    = 4
	adhocOpsPerJob = 32
	serveWarm      = 2048 // a whole number of serve-hot pool passes
	traceRing      = 1 << 14
)

func newServe(o options, adhoc, setupOnly bool) (*serveWorkload, error) {
	cfg := simdram.DefaultServerConfig(serveChannels)
	cfg.Channel.DRAM.Cols = serveCols
	cfg.VerifyPlans = true
	w := &serveWorkload{adhoc: adhoc, cfg: cfg, next: make([]int, serveClients)}
	// Separate generator streams keep the set-up requests identical
	// whether or not the pool is generated.
	setupRng := rand.New(rand.NewSource(o.seed))
	poolRng := rand.New(rand.NewSource(o.seed + 1))
	if adhoc {
		d := adhocDAG(setupRng, adhocElems, adhocInputs, adhocOpsPerJob)
		w.setupReqs = []request{newRequest(d, randPayload(setupRng, adhocInputs, adhocElems), false)}
		w.shapes = []dag{d}
		if setupOnly {
			return w, nil
		}
		payloads := make([][][]uint64, adhocPayloads)
		for i := range payloads {
			payloads[i] = randPayload(poolRng, adhocInputs, adhocElems)
		}
		w.pool = make([]request, adhocPool)
		for i := range w.pool {
			d := adhocDAG(poolRng, adhocElems, adhocInputs, adhocOpsPerJob)
			w.pool[i] = newRequest(d, payloads[i%adhocPayloads], o.corrupt && i == 0)
			if i < 16 {
				w.shapes = append(w.shapes, d)
			}
		}
	} else {
		// Profile convergence, as the serving demo warms: round 1 is
		// each shape's cold compile, rounds 2..MinJobs fold measured
		// per-op latencies into its profile, and round MinJobs+1
		// recompiles the diverged plan with observed costs.
		for round := 0; round <= simdram.DefaultProfileMinJobs; round++ {
			for _, s := range serveShapes {
				w.setupReqs = append(w.setupReqs, newRequest(s.build(hotElems), s.payload(setupRng, hotElems), false))
			}
		}
		for _, s := range serveShapes {
			w.shapes = append(w.shapes, s.build(hotElems))
		}
		if setupOnly {
			return w, nil
		}
		// Every aligned block of len(serveShapes) entries holds each
		// shape once, in seeded order, so any warm-up over whole blocks
		// averages the shapes equally.
		w.pool = make([]request, hotPool)
		for b := 0; b < hotPool; b += len(serveShapes) {
			for j, p := range poolRng.Perm(len(serveShapes)) {
				s := serveShapes[p]
				w.pool[b+j] = newRequest(s.build(hotElems), s.payload(poolRng, hotElems), o.corrupt && b+j == 0)
			}
		}
	}
	w.book = newBook(len(w.pool))
	for c := range w.next {
		w.next[c] = c
	}
	return w, nil
}

func randPayload(rng *rand.Rand, inputs, n int) [][]uint64 {
	p := make([][]uint64, inputs)
	for k := range p {
		p[k] = randVec(rng, n, 0, 256)
	}
	return p
}

// newRequest builds a request's expressions over Input leaves of the
// payload and hashes its golden result.
func newRequest(d dag, payload [][]uint64, corrupt bool) request {
	exprs := d.exprs(func(k, width int) *simdram.Expr { return simdram.Input(payload[k], width) })
	return request{exprs: exprs, want: expect(d.golden(payload), corrupt)}
}

func (w *serveWorkload) clients() int  { return serveClients }
func (w *serveWorkload) warmJobs() int { return serveWarm }

// traced returns a twin of w over the same pool whose server traces
// every job into a flight recorder deep enough for a measured window.
func (w *serveWorkload) traced() *serveWorkload {
	t := *w
	t.cfg.TraceSampling = 1
	t.cfg.TraceDepth = traceRing
	t.srv = nil
	t.next = make([]int, serveClients)
	for c := range t.next {
		t.next[c] = c
	}
	t.traceLats = make([][]traceLat, serveClients)
	return &t
}

func (w *serveWorkload) setup() error {
	srv, err := simdram.NewServer(w.cfg)
	if err != nil {
		return err
	}
	w.srv = srv
	for i, r := range w.setupReqs {
		if _, _, err := w.submit(0, r); err != nil {
			return fmt.Errorf("set-up job %d: %w", i, err)
		}
	}
	if !w.adhoc {
		if got, want := srv.Stats().Profile.Recompiles, uint64(len(serveShapes)); got != want {
			return fmt.Errorf("set-up did not converge: %d profile-guided recompiles, want %d", got, want)
		}
	}
	srv.ResetTraces()
	return nil
}

// submit runs one request as client c's tenant and checks its result.
func (w *serveWorkload) submit(c int, r request) (*simdram.JobResult, time.Duration, error) {
	start := time.Now()
	fut, err := w.srv.SubmitJob(context.Background(), simdram.JobSpec{Tenant: tenants[c]}, r.exprs...)
	if err != nil {
		return nil, 0, err
	}
	res, err := fut.Wait()
	lat := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	return res, lat, checkRoots("served job", res.Values, r.want)
}

var tenants = [serveClients]string{"client-0", "client-1"}

func (w *serveWorkload) job(c int) (time.Duration, float64, error) {
	e := w.next[c]
	w.next[c] = (e + serveClients) % len(w.pool)
	res, lat, err := w.submit(c, w.pool[e])
	if err != nil {
		return 0, 0, fmt.Errorf("pool entry %d: %w", e, err)
	}
	if !w.adhoc && !(res.Compile.CacheHit && res.Compile.ProfiledPlan) {
		return 0, 0, fmt.Errorf("pool entry %d missed its profiled cached plan (%+v)", e, res.Compile)
	}
	b := res.Batch
	if err := w.book.check(e, costs{b.CriticalPathNs, b.EnergyPJ, float64(b.Commands)}); err != nil {
		return 0, 0, err
	}
	if w.traceLats != nil {
		w.traceLats[c] = append(w.traceLats[c], traceLat{res.TraceID, lat})
	}
	return lat, b.CriticalPathNs, nil
}

func (w *serveWorkload) exact() costs { return w.book.mean() }

func (w *serveWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
	}
}
