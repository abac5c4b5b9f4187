package simdram

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// relClose reports |a−b| ≤ tol·max(|a|,|b|) — energy and busy-time
// sums accumulate the same per-job values in different orders, so
// exact float equality is not expected across aggregation paths.
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*m
}

// TestServerDeviceAttributionSums is the acceptance check for the
// attribution pipeline: per-tenant energy bills must equal the sum of
// the tenants' own batch stats, channel bills must sum to the tenant
// bills, and the per-channel/per-bank series must be in the registry.
func TestServerDeviceAttributionSums(t *testing.T) {
	srv := testServer(t, 2, nil)
	rng := rand.New(rand.NewSource(21))
	wantEnergy := map[string]float64{}
	wantDRAM := map[string]float64{}
	for i := 0; i < 10; i++ {
		tenant := "alice"
		if i%2 == 1 {
			tenant = "bob"
		}
		a, b := randData(rng, 96, 8), randData(rng, 96, 8)
		fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: tenant}, Input(a, 8).Add(Input(b, 8)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		wantEnergy[tenant] += res.Batch.EnergyPJ
		wantDRAM[tenant] += res.Batch.CriticalPathNs
	}

	dev := srv.DeviceStats()
	var tenantEnergy, tenantDRAM float64
	for name, want := range wantEnergy {
		bill, ok := dev.Tenants[name]
		if !ok {
			t.Fatalf("tenant %s has no device bill", name)
		}
		if !relClose(bill.EnergyPJ, want, 1e-9) {
			t.Errorf("tenant %s billed %v pJ, batches reported %v", name, bill.EnergyPJ, want)
		}
		if !relClose(bill.DRAMNs, wantDRAM[name], 1e-9) {
			t.Errorf("tenant %s billed %v DRAM-ns, batches reported %v", name, bill.DRAMNs, wantDRAM[name])
		}
		tenantEnergy += bill.EnergyPJ
		tenantDRAM += bill.DRAMNs
	}
	var chanEnergy, chanBusy float64
	var chanCmds uint64
	for _, ch := range dev.Channels {
		chanEnergy += ch.EnergyPJ
		chanBusy += ch.BusyNs
		chanCmds += ch.Commands
	}
	if !relClose(chanEnergy, tenantEnergy, 1e-9) {
		t.Errorf("channel energy sum %v != tenant energy sum %v", chanEnergy, tenantEnergy)
	}
	if !relClose(chanBusy, tenantDRAM, 1e-9) {
		t.Errorf("channel busy sum %v != tenant DRAM sum %v", chanBusy, tenantDRAM)
	}
	if chanCmds == 0 {
		t.Error("channels executed jobs but report zero commands")
	}

	// The server-level stats expose the same bills per tenant, and the
	// billed DRAM time tracks the scheduler's modeled time (same
	// quantity, independent pipeline).
	st := srv.Stats()
	for name := range wantEnergy {
		ts := st.Tenants[name]
		if !relClose(ts.BilledEnergyPJ, wantEnergy[name], 1e-9) {
			t.Errorf("Stats tenant %s BilledEnergyPJ %v, want %v", name, ts.BilledEnergyPJ, wantEnergy[name])
		}
		if !relClose(ts.BilledNs, ts.ModeledNs, 1e-9) {
			t.Errorf("Stats tenant %s BilledNs %v diverges from ModeledNs %v", name, ts.BilledNs, ts.ModeledNs)
		}
	}

	// Registry series: per-channel and per-bank attribution must be
	// scrapeable by name.
	byName := map[string]MetricPoint{}
	for _, p := range srv.Metrics() {
		byName[p.Name] = p
	}
	var busySeries float64
	for _, name := range []string{"channel.busy_ns{channel=0}", "channel.busy_ns{channel=1}"} {
		p, ok := byName[name]
		if !ok {
			t.Fatalf("series %s missing from registry", name)
		}
		busySeries += p.Value
	}
	if !relClose(busySeries, chanBusy, 1e-9) {
		t.Errorf("channel.busy_ns series sum %v != DeviceStats busy sum %v", busySeries, chanBusy)
	}
	for _, name := range []string{
		"channel.energy_pj{channel=0}",
		"channel.commands{channel=0}",
		"channel.util_ppm{channel=0}",
		"bank.busy_ns{bank=0,channel=0}",
		"bank.energy_pj{bank=0,channel=0}",
		"bank.commands{bank=0,channel=0}",
		"tenant.energy_pj{tenant=alice}",
		"tenant.dram_ns{tenant=bob}",
		"device.energy_pj",
		"cluster.energy_pj{channel=0}",
		"cluster.commands{channel=0}",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("series %s missing from registry", name)
		}
	}
	// Bank bills roll up to the device total.
	var bankEnergy float64
	for name, p := range byName {
		if strings.HasPrefix(name, "bank.energy_pj{") {
			bankEnergy += p.Value
		}
	}
	if !relClose(bankEnergy, byName["device.energy_pj"].Value, 1e-9) {
		t.Errorf("bank energy sum %v != device.energy_pj %v", bankEnergy, byName["device.energy_pj"].Value)
	}
}

// TestServerRawSubmitAttribution: raw jobs bill at channel granularity
// from the unit's exec-stats delta and feed the scheduler's modeled
// time like lazy jobs do.
func TestServerRawSubmitAttribution(t *testing.T) {
	srv := testServer(t, 1, nil)
	fut, err := srv.SubmitFn(context.Background(), JobSpec{Tenant: "raw"}, func(sys *System, cancel <-chan struct{}) error {
		a, err := sys.AllocVector(32, 8)
		if err != nil {
			return err
		}
		dst, err := sys.AllocVector(32, 8)
		if err != nil {
			return err
		}
		_, err = sys.Run("addition", dst, a, a)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	dev := srv.DeviceStats()
	bill, ok := dev.Tenants["raw"]
	if !ok || bill.EnergyPJ <= 0 || bill.DRAMNs <= 0 {
		t.Fatalf("raw tenant bill missing or zero: %+v", bill)
	}
	if !relClose(dev.Channels[0].EnergyPJ, bill.EnergyPJ, 1e-9) {
		t.Errorf("channel energy %v != raw tenant bill %v", dev.Channels[0].EnergyPJ, bill.EnergyPJ)
	}
	ts := srv.Stats().Tenants["raw"]
	if !relClose(ts.BilledNs, ts.ModeledNs, 1e-9) || ts.ModeledNs <= 0 {
		t.Errorf("raw tenant BilledNs %v / ModeledNs %v must match and be positive", ts.BilledNs, ts.ModeledNs)
	}
}

func TestServerSLOBreachEmitsEvent(t *testing.T) {
	srv := obsServer(t, 1, func(cfg *ServerConfig) {
		cfg.SLOs = []SLO{
			// 1 ns run target: every real job breaches immediately.
			{Tenant: "slow", Metric: "run_p99", TargetNs: 1, Window: 30 * time.Second},
			// Generous global target: never breaches.
			{Metric: "queue_p50", TargetNs: int64(time.Hour)},
		}
	})
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "slow"}, Input([]uint64{1, 2, 3, 4}, 8).Add(Scalar(2, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	sts := srv.SLOStatus()
	if len(sts) != 2 {
		t.Fatalf("SLOStatus returned %d entries, want 2", len(sts))
	}
	breach := sts[0]
	if !breach.Breaching || breach.BurnRate <= 1 || breach.Samples == 0 {
		t.Fatalf("1ns SLO must breach: %+v", breach)
	}
	if breach.BadFraction != 1 {
		t.Errorf("every sample is above 1ns, BadFraction = %v", breach.BadFraction)
	}
	if !relClose(breach.Budget, 0.01, 1e-9) {
		t.Errorf("p99 budget = %v, want 0.01", breach.Budget)
	}
	if ok := sts[1]; ok.Breaching || ok.BurnRate != 0 {
		t.Fatalf("1h SLO must not breach: %+v", ok)
	}
	var sloEvents int
	for _, ev := range srv.Events() {
		if ev.Kind == "slo" {
			sloEvents++
			if !strings.Contains(ev.Detail, "slow") || !strings.Contains(ev.Detail, "run_p99") {
				t.Errorf("slo event lacks tenant/metric: %q", ev.Detail)
			}
		}
	}
	if sloEvents != 1 {
		t.Fatalf("want exactly 1 edge-triggered slo event, got %d", sloEvents)
	}
	// Re-evaluating a sustained breach must not emit another event.
	srv.SLOStatus()
	var again int
	for _, ev := range srv.Events() {
		if ev.Kind == "slo" {
			again++
		}
	}
	if again != 1 {
		t.Fatalf("sustained breach re-emitted events: %d", again)
	}
}

func TestServerSLOConfigValidation(t *testing.T) {
	for _, bad := range []SLO{
		{Metric: "latency_p99", TargetNs: 1},          // unknown phase
		{Metric: "run_pxx", TargetNs: 1},              // non-numeric quantile
		{Metric: "run", TargetNs: 1},                  // no quantile
		{Metric: "run_p99"},                           // no target
		{Tenant: "t", Metric: "job_p99", TargetNs: 1}, // job_pN is global-only
	} {
		cfg := DefaultServerConfig(1)
		cfg.Channel.DRAM.Cols = 128
		cfg.Channel.DRAM.Banks = 2
		cfg.Channel.DRAM.SubarraysPerBank = 2
		cfg.SLOs = []SLO{bad}
		if srv, err := NewServer(cfg); err == nil {
			srv.Close()
			t.Errorf("SLO %+v must be rejected", bad)
		}
	}
}

func TestServerWindowedRates(t *testing.T) {
	srv := testServer(t, 1, nil)
	// Deterministic baseline sample, then work, then read: the rings
	// dedup to one sample per slice, so racing the background pump is
	// harmless.
	srv.telemetryTick(srv.nowNs())
	for i := 0; i < 4; i++ {
		fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "rt"}, Input([]uint64{9, 8, 7}, 8).Add(Scalar(1, 8)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if len(st.Rates) != len(rateWindows) {
		t.Fatalf("Stats reports %d rate windows, want %d", len(st.Rates), len(rateWindows))
	}
	for i, r := range st.Rates {
		if r.Window != rateWindows[i] {
			t.Errorf("rate %d window %v, want %v", i, r.Window, rateWindows[i])
		}
		if r.JobsPerSec <= 0 {
			t.Errorf("window %v: jobs completed but JobsPerSec = %v", r.Window, r.JobsPerSec)
		}
		if r.EnergyPJPerSec <= 0 {
			t.Errorf("window %v: energy attributed but EnergyPJPerSec = %v", r.Window, r.EnergyPJPerSec)
		}
		if r.RejectedPerSec != 0 {
			t.Errorf("window %v: nothing rejected but RejectedPerSec = %v", r.Window, r.RejectedPerSec)
		}
	}
}

func TestServerDebugHandlerHardening(t *testing.T) {
	srv := testServer(t, 1, nil)
	h := srv.DebugHandler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/simdram", nil))
	if rr.Code != 405 {
		t.Fatalf("POST status %d, want 405", rr.Code)
	}
	if allow := rr.Header().Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("405 must advertise Allow: GET, got %q", allow)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/simdram?kind=metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("kind=metrics status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("kind=metrics content-type %q", ct)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["metrics"]; !ok || len(doc) != 1 {
		t.Fatalf("kind=metrics must return exactly the metrics key, got %d keys", len(doc))
	}

	for _, kind := range []string{"traces", "events"} {
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/simdram?kind="+kind, nil))
		if rr.Code != 200 {
			t.Fatalf("kind=%s status %d", kind, rr.Code)
		}
		doc = nil
		if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if _, ok := doc[kind]; !ok || len(doc) != 1 {
			t.Fatalf("kind=%s must return exactly that key", kind)
		}
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/simdram?kind=bogus", nil))
	if rr.Code != 400 {
		t.Fatalf("unknown kind status %d, want 400", rr.Code)
	}

	// HEAD is allowed (ServeMux-style probes).
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("HEAD", "/debug/simdram", nil))
	if rr.Code != 200 {
		t.Fatalf("HEAD status %d, want 200", rr.Code)
	}
}

func TestServerMetricsHandlerExposition(t *testing.T) {
	srv := testServer(t, 1, nil)
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "expo"}, Input([]uint64{1, 2, 3}, 8).Add(Scalar(1, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q, want text/plain exposition", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE simdram_channel_busy_ns counter",
		`simdram_channel_busy_ns{channel="0"} `,
		`simdram_tenant_energy_pj{tenant="expo"} `,
		"# TYPE simdram_channel_util_ppm gauge",
		"# TYPE simdram_sched_run_ns summary",
		`simdram_sched_run_ns{quantile="0.99"} `,
		"simdram_sched_run_ns_count 1",
		`simdram_bank_busy_ns{bank="0",channel="0"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every non-comment line is "name{labels} value" with a parseable
	// float — the wire-format sanity the CI smoke also curls for.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		if _, err := json.Number(line[sp+1:]).Float64(); err != nil {
			t.Fatalf("line %q: value not a float: %v", line, err)
		}
	}

	rr = httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("POST", "/metrics", nil))
	if rr.Code != 405 {
		t.Fatalf("POST /metrics status %d, want 405", rr.Code)
	}
}
