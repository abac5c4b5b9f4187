package simdram

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"simdram/internal/ctrl"
	"simdram/internal/obs"
)

// This file is the server's device-telemetry layer: per-channel and
// per-bank resource attribution (busy time, commands, energy billed to
// the tenant that caused them), windowed rates over the admission
// counters, and declarative SLO tracking with burn-rate events. See
// docs/observability.md ("Device telemetry").

// Windows the serving stats report trailing rates over.
var rateWindows = []time.Duration{time.Second, 10 * time.Second, 60 * time.Second}

// telemetrySlice is how often the telemetry pump samples the cumulative
// counters into the windowed rings (and the shortest meaningful rate
// window resolution).
const telemetrySlice = 100 * time.Millisecond

// telemetrySlices sizes the rings to retain a bit more than the widest
// rate window (60 s) at telemetrySlice resolution.
const telemetrySlices = int(64*time.Second/telemetrySlice) + 1

// SLO declares one latency objective the server evaluates continuously:
// the Metric quantile of Tenant's jobs must stay at or below TargetNs
// over the trailing Window. Metric is "<phase>_p<quantile>" where phase
// is "queue", "run", or "job" (end-to-end) and the quantile digits are
// read after the decimal point: "run_p99" is the 99th percentile run
// time, "queue_p999" the 99.9th percentile queue wait. An empty Tenant
// targets the all-tenants distribution; "job" metrics are global-only
// (the scheduler keeps per-tenant histograms for queue and run).
type SLO struct {
	Tenant   string
	Metric   string
	TargetNs int64
	// Window is the trailing evaluation window; 0 defaults to 10s.
	Window time.Duration
}

// SLOStatus is the point-in-time evaluation of one configured SLO.
// BurnRate is the classic error-budget burn: the fraction of windowed
// observations above target divided by the budgeted fraction (1−q). A
// burn rate of 1 consumes the budget exactly as fast as it accrues;
// above 1 the objective is being violated and Breaching is set.
type SLOStatus struct {
	SLO SLO
	// Samples is how many observations fell in the window.
	Samples uint64
	// CurrentNs is the windowed value of the tracked quantile.
	CurrentNs int64
	// BadFraction is the fraction of windowed observations above target.
	BadFraction float64
	// Budget is the allowed bad fraction, 1−q.
	Budget    float64
	BurnRate  float64
	Breaching bool
}

// sloTracker pairs one configured SLO with its source histogram and a
// windowed ring of its snapshots.
type sloTracker struct {
	cfg  SLO
	q    float64
	hist *obs.Histogram
	win  *obs.WindowedHist

	mu        sync.Mutex
	breaching bool
}

// parseSLOMetric splits "run_p99" into its histogram base series and
// quantile.
func parseSLOMetric(metric string) (base string, q float64, ok bool) {
	phase, qs, found := strings.Cut(metric, "_p")
	if !found || qs == "" {
		return "", 0, false
	}
	switch phase {
	case "queue":
		base = "sched.queue_ns"
	case "run":
		base = "sched.run_ns"
	case "job":
		base = "sched.job_ns"
	default:
		return "", 0, false
	}
	digits, err := strconv.ParseUint(qs, 10, 32)
	if err != nil {
		return "", 0, false
	}
	q = float64(digits)
	for range qs {
		q /= 10
	}
	if q >= 1 {
		return "", 0, false
	}
	return base, q, true
}

// newSLOTrackers validates and binds the configured SLOs against the
// registry's scheduler histograms.
func newSLOTrackers(slos []SLO, metrics *obs.Registry) ([]*sloTracker, error) {
	out := make([]*sloTracker, 0, len(slos))
	for i, cfg := range slos {
		base, q, ok := parseSLOMetric(cfg.Metric)
		if !ok {
			return nil, errorf("server: SLO %d: unknown metric %q (want queue_pN, run_pN, or job_pN)", i, cfg.Metric)
		}
		if cfg.Tenant != "" && base == "sched.job_ns" {
			return nil, errorf("server: SLO %d: metric %q is global-only, drop the tenant", i, cfg.Metric)
		}
		if cfg.TargetNs <= 0 {
			return nil, errorf("server: SLO %d: target must be positive", i)
		}
		if cfg.Window <= 0 {
			cfg.Window = 10 * time.Second
		}
		name := base
		if cfg.Tenant != "" {
			name = obs.TenantSeries(base, "tenant", cfg.Tenant)
		}
		out = append(out, &sloTracker{
			cfg:  cfg,
			q:    q,
			hist: metrics.Histogram(name),
			win:  obs.NewWindowedHist(telemetrySlice, telemetrySlices),
		})
	}
	return out, nil
}

// status evaluates the tracker at nowNs (the server's monotonic clock).
func (sl *sloTracker) status(nowNs int64) SLOStatus {
	cur := sl.hist.Snapshot()
	win := sl.win.Windowed(nowNs, cur, sl.cfg.Window)
	st := SLOStatus{
		SLO:         sl.cfg,
		Samples:     win.Count,
		CurrentNs:   win.Quantile(sl.q),
		BadFraction: win.FractionAbove(sl.cfg.TargetNs),
		Budget:      1 - sl.q,
	}
	if st.Budget > 0 {
		st.BurnRate = st.BadFraction / st.Budget
	}
	st.Breaching = st.Samples > 0 && st.BurnRate > 1
	return st
}

// tenantBill is one tenant's cumulative device attribution.
type tenantBill struct {
	dramNs   *obs.FloatCounter
	energyPJ *obs.FloatCounter
}

// deviceTelemetry aggregates per-job attribution into registry series
// and keeps the windowed rings the rate and utilization surfaces read.
// One instance per Server; per-channel state is only ever touched by
// that channel's worker, tenant bills are created under mu.
type deviceTelemetry struct {
	reg   *obs.Registry
	banks int

	// Per channel, indexed by worker: the reusable attribution sink and
	// the cumulative series it drains into.
	attrs    []*ctrl.Attribution
	busy     []*obs.FloatCounter // channel.busy_ns{channel=N}: modeled DRAM busy
	wallBusy []*obs.FloatCounter // channel.wall_busy_ns{channel=N}: host execution wall time
	energy   []*obs.FloatCounter // channel.energy_pj{channel=N}
	commands []*obs.Counter      // channel.commands{channel=N}
	util     []*obs.Gauge        // channel.util_ppm{channel=N}: trailing wall utilization
	bankHist []*obs.Histogram    // channel.bank_busy_ns{channel=N}: per-job per-bank busy

	// Per (channel, bank) cumulative bills.
	bankBusy   [][]*obs.FloatCounter
	bankEnergy [][]*obs.FloatCounter
	bankCmds   [][]*obs.Counter

	totalEnergy *obs.FloatCounter // device.energy_pj

	mu      sync.Mutex
	tenants map[string]*tenantBill

	// Windowed rings, recorded by the telemetry pump.
	jobsWin   *obs.WindowedSeries
	rejWin    *obs.WindowedSeries
	energyWin *obs.WindowedSeries
	wallWins  []*obs.WindowedSeries // per-channel wall-busy, feeds util
}

func newDeviceTelemetry(channels, banks int, reg *obs.Registry) *deviceTelemetry {
	d := &deviceTelemetry{
		reg:         reg,
		banks:       banks,
		tenants:     map[string]*tenantBill{},
		totalEnergy: reg.FloatCounter("device.energy_pj"),
		jobsWin:     obs.NewWindowedSeries(telemetrySlice, telemetrySlices),
		rejWin:      obs.NewWindowedSeries(telemetrySlice, telemetrySlices),
		energyWin:   obs.NewWindowedSeries(telemetrySlice, telemetrySlices),
	}
	for ch := 0; ch < channels; ch++ {
		cl := strconv.Itoa(ch)
		at := &ctrl.Attribution{
			BusyNs:   make([]float64, banks),
			Commands: make([]int64, banks),
			EnergyPJ: make([]float64, banks),
		}
		d.attrs = append(d.attrs, at)
		d.busy = append(d.busy, reg.FloatCounter(obs.TenantSeries("channel.busy_ns", "channel", cl)))
		d.wallBusy = append(d.wallBusy, reg.FloatCounter(obs.TenantSeries("channel.wall_busy_ns", "channel", cl)))
		d.energy = append(d.energy, reg.FloatCounter(obs.TenantSeries("channel.energy_pj", "channel", cl)))
		d.commands = append(d.commands, reg.Counter(obs.TenantSeries("channel.commands", "channel", cl)))
		d.util = append(d.util, reg.Gauge(obs.TenantSeries("channel.util_ppm", "channel", cl)))
		d.bankHist = append(d.bankHist, reg.Histogram(obs.TenantSeries("channel.bank_busy_ns", "channel", cl)))
		d.wallWins = append(d.wallWins, obs.NewWindowedSeries(telemetrySlice, telemetrySlices))

		bb := make([]*obs.FloatCounter, banks)
		be := make([]*obs.FloatCounter, banks)
		bc := make([]*obs.Counter, banks)
		for b := 0; b < banks; b++ {
			bl := strconv.Itoa(b)
			bb[b] = reg.FloatCounter(obs.Labels("bank.busy_ns", "bank", bl, "channel", cl))
			be[b] = reg.FloatCounter(obs.Labels("bank.energy_pj", "bank", bl, "channel", cl))
			bc[b] = reg.Counter(obs.Labels("bank.commands", "bank", bl, "channel", cl))
		}
		d.bankBusy = append(d.bankBusy, bb)
		d.bankEnergy = append(d.bankEnergy, be)
		d.bankCmds = append(d.bankCmds, bc)
	}
	return d
}

// attrFor returns channel worker's reusable attribution sink, reset for
// one job.
func (d *deviceTelemetry) attrFor(worker int) *ctrl.Attribution {
	at := d.attrs[worker]
	at.Reset()
	return at
}

// bill returns (creating on first sight) the tenant's cumulative
// attribution series: tenant.dram_ns{tenant=T} and
// tenant.energy_pj{tenant=T}.
func (d *deviceTelemetry) bill(tenant string) *tenantBill {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.tenants[tenant]
	if b == nil {
		b = &tenantBill{
			dramNs:   d.reg.FloatCounter(obs.TenantSeries("tenant.dram_ns", "tenant", tenant)),
			energyPJ: d.reg.FloatCounter(obs.TenantSeries("tenant.energy_pj", "tenant", tenant)),
		}
		d.tenants[tenant] = b
	}
	return b
}

// observeJob folds one completed lazy job's attribution into the
// channel, bank, and tenant series. The tenant is billed the batch's
// modeled critical path (SpanNs — the DRAM time its job actually
// occupied the channel for under the overlap-aware model, the same
// quantity sched.Observe records) and the job's total energy; the
// channel and its banks absorb the per-bank detail.
func (d *deviceTelemetry) observeJob(tenant string, worker int, at *ctrl.Attribution, wallRunNs int64) {
	var energy float64
	for b := 0; b < len(at.BusyNs) && b < d.banks; b++ {
		if at.BusyNs[b] > 0 {
			d.bankBusy[worker][b].Add(at.BusyNs[b])
			d.bankHist[worker].Observe(int64(at.BusyNs[b]))
		}
		if at.Commands[b] > 0 {
			d.bankCmds[worker][b].Add(uint64(at.Commands[b]))
		}
		d.bankEnergy[worker][b].Add(at.EnergyPJ[b])
		energy += at.EnergyPJ[b]
	}
	d.busy[worker].Add(at.SpanNs)
	d.energy[worker].Add(energy)
	d.commands[worker].Add(uint64(at.TotalCommands()))
	d.wallBusy[worker].Add(float64(wallRunNs))
	d.totalEnergy.Add(energy)
	b := d.bill(tenant)
	b.dramNs.Add(at.SpanNs)
	b.energyPJ.Add(energy)
}

// observeRaw folds a raw SubmitFn job's execution-stats delta into the
// channel and tenant series. Raw jobs have no per-bank breakdown — the
// unit's aggregate stats are the finest attribution available — so
// they bill at channel granularity.
func (d *deviceTelemetry) observeRaw(tenant string, worker int, delta ctrl.ExecStats, wallRunNs int64) {
	d.busy[worker].Add(delta.BusyNs)
	d.energy[worker].Add(delta.EnergyPJ)
	if delta.Commands > 0 {
		d.commands[worker].Add(uint64(delta.Commands))
	}
	d.wallBusy[worker].Add(float64(wallRunNs))
	d.totalEnergy.Add(delta.EnergyPJ)
	b := d.bill(tenant)
	b.dramNs.Add(delta.BusyNs)
	b.energyPJ.Add(delta.EnergyPJ)
}

// record samples the cumulative totals into the windowed rings and
// refreshes the utilization gauges — called by the telemetry pump every
// slice (and by Stats, where the once-per-slice gate dedups).
func (d *deviceTelemetry) record(nowNs int64, completed, rejected uint64) {
	d.jobsWin.Record(nowNs, float64(completed))
	d.rejWin.Record(nowNs, float64(rejected))
	d.energyWin.Record(nowNs, d.totalEnergy.Value())
	for ch := range d.wallWins {
		wall := d.wallBusy[ch].Value()
		d.wallWins[ch].Record(nowNs, wall)
		// Utilization = wall time the channel spent executing over the
		// trailing 10s of wall time, in parts per million.
		u := d.wallWins[ch].Rate(nowNs, wall, 10*time.Second) / 1e9
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		d.util[ch].Set(int64(u * 1e6))
	}
}

// WindowRates is one trailing window's view of the serving rates.
type WindowRates struct {
	Window         time.Duration
	JobsPerSec     float64
	RejectedPerSec float64
	// EnergyPJPerSec is attributed energy per second — the fabric's
	// power draw in the model's units (1 pJ/s = 1e-12 W).
	EnergyPJPerSec float64
}

// rates reads the trailing rates for every reporting window.
func (d *deviceTelemetry) rates(nowNs int64, completed, rejected uint64) []WindowRates {
	out := make([]WindowRates, 0, len(rateWindows))
	energy := d.totalEnergy.Value()
	for _, w := range rateWindows {
		out = append(out, WindowRates{
			Window:         w,
			JobsPerSec:     d.jobsWin.Rate(nowNs, float64(completed), w),
			RejectedPerSec: d.rejWin.Rate(nowNs, float64(rejected), w),
			EnergyPJPerSec: d.energyWin.Rate(nowNs, energy, w),
		})
	}
	return out
}

// ChannelTelemetry is one channel's cumulative device attribution plus
// its trailing utilization, as reported by Server.DeviceStats.
type ChannelTelemetry struct {
	Channel int
	// BusyNs is the modeled DRAM time of the jobs the channel ran (sum
	// of batch critical paths); WallBusyNs the host wall time spent
	// executing them.
	BusyNs     float64
	WallBusyNs float64
	EnergyPJ   float64
	Commands   uint64
	// Utilization is the trailing-10s fraction of wall time the channel
	// spent executing (the channel.util_ppm gauge, scaled).
	Utilization float64
}

// TenantDeviceStats is one tenant's cumulative device bill.
type TenantDeviceStats struct {
	// DRAMNs is the modeled DRAM time billed to the tenant — the summed
	// critical paths of its jobs, the capacity measure deadline-aware
	// admission will price.
	DRAMNs   float64
	EnergyPJ float64
}

// DeviceStats is the device-attribution snapshot: who used the
// hardware (tenants) and where the usage landed (channels).
type DeviceStats struct {
	Channels []ChannelTelemetry
	Tenants  map[string]TenantDeviceStats
}

// snapshot builds the public device-stats view.
func (d *deviceTelemetry) snapshot() DeviceStats {
	st := DeviceStats{Channels: make([]ChannelTelemetry, len(d.busy))}
	for ch := range d.busy {
		st.Channels[ch] = ChannelTelemetry{
			Channel:     ch,
			BusyNs:      d.busy[ch].Value(),
			WallBusyNs:  d.wallBusy[ch].Value(),
			EnergyPJ:    d.energy[ch].Value(),
			Commands:    d.commands[ch].Value(),
			Utilization: float64(d.util[ch].Value()) / 1e6,
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st.Tenants = make(map[string]TenantDeviceStats, len(d.tenants))
	for name, b := range d.tenants {
		st.Tenants[name] = TenantDeviceStats{DRAMNs: b.dramNs.Value(), EnergyPJ: b.energyPJ.Value()}
	}
	return st
}

// nowNs is the server's monotonic telemetry clock: nanoseconds since
// the server started. All windowed rings are stamped with it.
func (s *Server) nowNs() int64 { return int64(time.Since(s.epoch)) }

// telemetryTick advances the windowed rings and evaluates SLOs — the
// pump's body, also callable directly (tests, Stats) because every ring
// dedups to one sample per slice.
func (s *Server) telemetryTick(nowNs int64) {
	ss := s.sched.Stats()
	s.dev.record(nowNs, ss.Completed, ss.Rejected)
	for _, sl := range s.slos {
		sl.win.Record(nowNs, sl.hist.Snapshot())
	}
	s.evalSLOs(nowNs)
}

// evalSLOs computes every tracker's status, emitting an "slo" event
// into the flight recorder on each transition into breach (edge-
// triggered, so a sustained breach is one event, and a recovery re-arms
// it).
func (s *Server) evalSLOs(nowNs int64) []SLOStatus {
	out := make([]SLOStatus, 0, len(s.slos))
	for _, sl := range s.slos {
		st := sl.status(nowNs)
		sl.mu.Lock()
		entered := st.Breaching && !sl.breaching
		sl.breaching = st.Breaching
		sl.mu.Unlock()
		if entered {
			tenant := sl.cfg.Tenant
			if tenant == "" {
				tenant = "*"
			}
			s.rec.Eventf("slo", "SLO breach: tenant %s %s = %dns > target %dns over %s (burn %.2fx, %d samples)",
				tenant, sl.cfg.Metric, st.CurrentNs, sl.cfg.TargetNs, sl.cfg.Window, st.BurnRate, st.Samples)
		}
		out = append(out, st)
	}
	// Translate breaching per-tenant SLOs into a tier boost: while a
	// tier's SLO burn is active the scheduler preempts queued work of
	// strictly lower-priority tiers in its favor. A wildcard SLO (no
	// tenant) breaching boosts nothing — there is no tier to favor.
	boost := map[string]bool{}
	for _, st := range out {
		if st.Breaching && st.SLO.Tenant != "" {
			boost[s.sched.TierOf(st.SLO.Tenant)] = true
		}
	}
	s.sched.SetBoost(boost)
	return out
}

// SLOStatus evaluates every configured SLO right now and returns their
// statuses in configuration order (nil when no SLOs are configured).
// Evaluation is the same code path the background pump runs, so a
// breach observed here also lands its burn-rate event in Events().
func (s *Server) SLOStatus() []SLOStatus {
	if len(s.slos) == 0 {
		return nil
	}
	return s.evalSLOs(s.nowNs())
}

// DeviceStats returns the device-attribution snapshot: per-channel
// busy/energy/commands/utilization and per-tenant DRAM-time and energy
// bills.
func (s *Server) DeviceStats() DeviceStats { return s.dev.snapshot() }

// pump is the background telemetry loop: every slice it samples the
// cumulative counters into the windowed rings, refreshes utilization
// gauges, and evaluates SLOs.
func (s *Server) pump() {
	defer close(s.pumpDone)
	t := time.NewTicker(telemetrySlice)
	defer t.Stop()
	for {
		select {
		case <-s.pumpStop:
			return
		case <-t.C:
			s.telemetryTick(s.nowNs())
		}
	}
}
