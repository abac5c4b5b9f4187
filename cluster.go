package simdram

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"simdram/internal/cluster"
	"simdram/internal/ctrl"
	"simdram/internal/graph"
	"simdram/internal/isa"
	"simdram/internal/obs"
	"simdram/internal/ops"
)

// ClusterConfig configures a Cluster: how many independent channels it
// owns, the geometry of each, and the default placement policy new
// sharded vectors stripe with.
type ClusterConfig struct {
	// Channels is the number of independent channels. Each channel is a
	// full System — its own DRAM module, control unit, and
	// transposition unit — so channels execute truly concurrently.
	Channels int
	// Channel configures every channel's System.
	Channel Config
	// Placement selects the default allocation policy.
	Placement PlacementPolicy
}

// PlacementPolicy selects how AllocShardedVector stripes elements
// across channels.
type PlacementPolicy int

const (
	// PlaceRoundRobin stripes every allocation across all channels in
	// fixed index order. Same-length vectors always share a plan, so
	// operand groups stay shard-aligned without further care — the
	// right default for compute-heavy programs.
	PlaceRoundRobin PlacementPolicy = iota
	// PlaceLeastLoaded orders channels by ascending allocated rows, so
	// lightly used channels absorb the larger chunks. Every allocation
	// changes the load it orders by, so even consecutive same-length
	// allocations can receive different plans; operand groups that must
	// meet in an operation should be allocated with AllocShardedGroup
	// (one load snapshot, one shared plan) or with explicit affinity.
	PlaceLeastLoaded
)

// DefaultClusterConfig returns a cluster of n default-geometry channels
// with round-robin placement.
func DefaultClusterConfig(n int) ClusterConfig {
	return ClusterConfig{Channels: n, Channel: DefaultConfig(), Placement: PlaceRoundRobin}
}

// Cluster aggregates N independent channels into one compute fabric
// with a single address space: ShardedVectors stripe their elements
// across channels, Store/Load scatter and gather through the per-channel
// transposition units concurrently, and ExecBatch fans a program out to
// every channel in parallel, merging the results under an honest timing
// model (per-channel critical paths combine as a max, work and energy
// as sums).
type Cluster struct {
	cfg      ClusterConfig
	channels []*System
	policy   cluster.Policy
	objects  map[uint16]*ShardedVector
	handles  handleSpace

	// plans memoizes compiled expression shapes (see PlanCacheStats),
	// each with the measured per-op latencies that drive its
	// profile-guided recompile (see ProfileStats).
	plans *graph.PlanCache

	// metrics holds the cluster's dispatch observability: a batch
	// counter and, per channel, a modeled-latency histogram
	// (cluster.dispatch_ns{channel=N}) plus cumulative energy and
	// command counters (cluster.energy_pj{channel=N},
	// cluster.commands{channel=N}), so per-channel skew shows up in
	// energy terms as well as time. Exposed via Metrics().
	metrics  *obs.Registry
	batches  *obs.Counter
	dispatch []*obs.Histogram
	energy   []*obs.FloatCounter
	commands []*obs.Counter

	// verified counts the cluster-wide programs that passed the IR
	// verifier (per-channel sub-programs are counted by each channel's
	// System).
	verified atomic.Int64

	// memo is ExecBatch's one-entry memo of the last program it ran,
	// prepared on every channel (see takeMemo).
	memoMu sync.Mutex
	memo   *batchMemo
}

// NewCluster builds a cluster of cfg.Channels independent channels.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Channels < 1 {
		return nil, errorf("cluster needs at least 1 channel, have %d", cfg.Channels)
	}
	var policy cluster.Policy
	switch cfg.Placement {
	case PlaceRoundRobin:
		policy = cluster.RoundRobin{}
	case PlaceLeastLoaded:
		policy = cluster.LeastLoaded{}
	default:
		return nil, errorf("unknown placement policy %d", cfg.Placement)
	}
	c := &Cluster{
		cfg: cfg, policy: policy,
		objects: make(map[uint16]*ShardedVector),
		plans:   graph.NewPlanCache(DefaultPlanCacheSize, DefaultProfileThreshold, DefaultProfileMinJobs),
		metrics: obs.NewRegistry(),
	}
	c.batches = c.metrics.Counter("cluster.batches")
	for ch := 0; ch < cfg.Channels; ch++ {
		label := strconv.Itoa(ch)
		c.dispatch = append(c.dispatch,
			c.metrics.Histogram(obs.TenantSeries("cluster.dispatch_ns", "channel", label)))
		c.energy = append(c.energy,
			c.metrics.FloatCounter(obs.TenantSeries("cluster.energy_pj", "channel", label)))
		c.commands = append(c.commands,
			c.metrics.Counter(obs.TenantSeries("cluster.commands", "channel", label)))
	}
	for i := 0; i < cfg.Channels; i++ {
		sys, err := New(cfg.Channel)
		if err != nil {
			c.Close()
			return nil, errorf("channel %d: %w", i, err)
		}
		c.channels = append(c.channels, sys)
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() ClusterConfig { return c.cfg }

// Channels returns the number of channels.
func (c *Cluster) Channels() int { return len(c.channels) }

// Channel exposes one channel's System (for experiments and fault
// injection). Mutating a channel's allocations directly can starve the
// cluster's own vectors; use with care.
func (c *Cluster) Channel(i int) *System { return c.channels[i] }

// VerifiedPlans returns how many programs the IR verifier has checked
// and passed across the cluster: cluster-wide compiled programs plus
// every channel's prepared sub-programs. The cluster compiler checks
// every lowered program against its handle table, and each channel's
// System verifies the per-channel sub-programs it prepares.
func (c *Cluster) VerifiedPlans() int64 {
	total := c.verified.Load()
	for _, sys := range c.channels {
		total += sys.VerifiedPlans()
	}
	return total
}

// Close drops the ExecBatch memo and closes every channel's System.
func (c *Cluster) Close() {
	c.dropMemo()
	for _, sys := range c.channels {
		sys.Close()
	}
}

// loads returns the per-channel allocated-row counts policies shard
// against.
func (c *Cluster) loads() []int {
	loads := make([]int, len(c.channels))
	for i, sys := range c.channels {
		loads[i] = sys.usedRows()
	}
	return loads
}

// ShardedVector is a cluster-wide vector: n elements striped over the
// channels according to its placement plan, each channel's shard a
// normal Vector on that channel's System.
type ShardedVector struct {
	cl     *Cluster
	handle uint16
	n      int
	width  int
	plan   cluster.Plan
	parts  []*Vector // parallel to plan.Spans
	freed  bool
}

// AllocShardedVector reserves a vector of n elements of the given width,
// striped across channels by the cluster's placement policy.
func (c *Cluster) AllocShardedVector(n, width int) (*ShardedVector, error) {
	return c.allocSharded(n, width, c.policy, func(sys *System, count int) (*Vector, error) {
		return sys.AllocVector(count, width)
	})
}

// AllocShardedGroup reserves count vectors of n elements under one
// load snapshot, so all of them share a single placement plan and can
// meet in operations regardless of the placement policy. This is the
// way to allocate an operand group (sources plus destination) under
// PlaceLeastLoaded, whose per-allocation plans otherwise diverge as
// each allocation shifts the load it orders by.
func (c *Cluster) AllocShardedGroup(n, width, count int) ([]*ShardedVector, error) {
	if count < 1 {
		return nil, errorf("group needs at least 1 vector, have %d", count)
	}
	order := c.policy.Order(c.loads())
	group := make([]*ShardedVector, 0, count)
	for i := 0; i < count; i++ {
		v, err := c.allocSharded(n, width, cluster.Affinity{Channels: order}, func(sys *System, cnt int) (*Vector, error) {
			return sys.AllocVector(cnt, width)
		})
		if err != nil {
			for _, prev := range group {
				prev.Free()
			}
			return nil, err
		}
		group = append(group, v)
	}
	return group, nil
}

// AllocShardedVectorOn is AllocShardedVector with explicit channel
// affinity: elements stripe over exactly the listed channels, in order.
// Operand groups allocated with the same affinity and length share a
// plan regardless of the cluster's load.
func (c *Cluster) AllocShardedVectorOn(n, width int, channels []int) (*ShardedVector, error) {
	for _, ch := range channels {
		if ch < 0 || ch >= len(c.channels) {
			return nil, errorf("affinity channel %d out of range [0,%d)", ch, len(c.channels))
		}
	}
	return c.allocSharded(n, width, cluster.Affinity{Channels: channels}, func(sys *System, count int) (*Vector, error) {
		return sys.AllocVector(count, width)
	})
}

// AllocShardedVectorAt is AllocShardedVector with an explicit starting
// placement inside every channel: each shard's first segment lands in
// the given (bank, subarray) of its channel. Giving different origins to
// independent operand groups spreads them across banks on every channel,
// which is what lets ExecBatch overlap their instructions within each
// channel as well as across channels.
func (c *Cluster) AllocShardedVectorAt(n, width, bank, sub int) (*ShardedVector, error) {
	return c.allocSharded(n, width, c.policy, func(sys *System, count int) (*Vector, error) {
		return sys.AllocVectorAt(count, width, bank, sub)
	})
}

// allocSharded plans the stripe and allocates one shard per span,
// rolling everything back on failure.
func (c *Cluster) allocSharded(n, width int, policy cluster.Policy, alloc func(sys *System, count int) (*Vector, error)) (*ShardedVector, error) {
	plan, err := cluster.MakePlan(n, policy.Order(c.loads()))
	if err != nil {
		return nil, err
	}
	v := &ShardedVector{cl: c, n: n, width: width, plan: plan}
	for _, span := range plan.Spans {
		part, err := alloc(c.channels[span.Channel], span.Count)
		if err != nil {
			v.freeParts()
			return nil, errorf("channel %d: %w", span.Channel, err)
		}
		v.parts = append(v.parts, part)
	}
	h, err := c.handles.alloc()
	if err != nil {
		v.freeParts()
		return nil, err
	}
	v.handle = h
	c.objects[h] = v
	return v, nil
}

// Handle returns the cluster-wide object handle used in bbop programs
// passed to Cluster.ExecBatch.
func (v *ShardedVector) Handle() uint16 { return v.handle }

// Len returns the element count.
func (v *ShardedVector) Len() int { return v.n }

// Width returns the element width in bits.
func (v *ShardedVector) Width() int { return v.width }

// freeParts releases the per-channel shards.
func (v *ShardedVector) freeParts() {
	for _, part := range v.parts {
		part.Free()
	}
	v.parts = nil
}

// Free releases every channel's shard and the cluster handle.
func (v *ShardedVector) Free() {
	if v.freed {
		return
	}
	v.cl.memoMu.Lock()
	if m := v.cl.memo; m != nil && m.names(v.handle) {
		v.cl.memo = nil // do not keep the freed rows' streams alive
	}
	v.cl.memoMu.Unlock()
	v.freeParts()
	delete(v.cl.objects, v.handle)
	v.cl.handles.release(v.handle)
	v.freed = true
}

// Store scatters horizontal data across the channels: each shard's
// chunk goes through its own channel's transposition unit, all channels
// in parallel.
func (v *ShardedVector) Store(data []uint64) error {
	if v.freed {
		return errorf("store to freed sharded vector")
	}
	if len(data) != v.n {
		return errorf("store: sharded vector holds %d elements, data has %d", v.n, len(data))
	}
	return cluster.Dispatch(v.spanChannels(), func(task, ch int) error {
		span := v.plan.Spans[task]
		return v.parts[task].Store(data[span.Off : span.Off+span.Count])
	})
}

// storeSplat stores val into every element, each shard through its
// own channel (see Vector.storeSplat), all channels in parallel.
func (v *ShardedVector) storeSplat(val uint64) error {
	if v.freed {
		return errorf("store to freed sharded vector")
	}
	return cluster.Dispatch(v.spanChannels(), func(task, ch int) error {
		return v.parts[task].storeSplat(val)
	})
}

// Load gathers the vector back into one horizontal slice, all channels
// in parallel, each shard transposing straight into its span of the
// result.
func (v *ShardedVector) Load() ([]uint64, error) {
	if v.freed {
		return nil, errorf("load from freed sharded vector")
	}
	out := make([]uint64, v.n)
	if err := v.loadInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// loadInto is Load into out (v.n elements).
func (v *ShardedVector) loadInto(out []uint64) error {
	if v.freed {
		return errorf("load from freed sharded vector")
	}
	return cluster.Dispatch(v.spanChannels(), func(task, ch int) error {
		span := v.plan.Spans[task]
		return v.parts[task].loadInto(out[span.Off : span.Off+span.Count])
	})
}

// spanChannels returns the channel of every span, parallel to parts.
func (v *ShardedVector) spanChannels() []int {
	chs := make([]int, len(v.plan.Spans))
	for i, span := range v.plan.Spans {
		chs[i] = span.Channel
	}
	return chs
}

// ClusterBatchStats describes the cost of a Cluster.ExecBatch call:
// BatchStats summed across channels, the cluster makespan as the
// critical path, and per-channel utilization and energy.
type ClusterBatchStats = cluster.BatchStats

// ExecBatch executes a program of bbop instructions — written against
// cluster-wide object handles — across every channel: the program is
// split by shard, handles and element counts are rewritten per channel,
// and the per-channel sub-batches dispatch in parallel through each
// channel's hazard-aware scheduler. Results are indistinguishable from
// executing the same program on one System holding all the data.
//
// Every operand of one instruction must be shard-aligned (same
// placement plan — allocate operand groups with the same length and
// policy, or with explicit affinity).
//
// The cluster remembers the last program it ran, sharded and prepared
// on every channel: a later call with an equal instruction sequence
// whose objects and scratch rows are unchanged replays that prepared
// form instead of re-sharding and re-preparing it.
//
// Every channel's share passes the IR verifier and is bound before any
// channel runs, so an invalid program or a rejected binding fails the
// call, annotated with the channel that raised it, with no DRAM command
// issued. Once the channels start they run to completion.
func (c *Cluster) ExecBatch(prog isa.Program) (ClusterBatchStats, error) {
	m := c.takeMemo(prog)
	if m == nil {
		sp, err := c.prepareSharded(prog)
		if err != nil {
			return ClusterBatchStats{}, err
		}
		m = &batchMemo{key: append(isa.Program(nil), prog...), sp: sp}
	}
	st, _, err := c.runSharded(m.sp)
	if err != nil {
		return ClusterBatchStats{}, err
	}
	c.memoMu.Lock()
	c.memo = m
	c.memoMu.Unlock()
	return st, nil
}

// batchMemo is ExecBatch's prepared form of one program. key is a
// private copy of its instruction sequence: callers may mutate theirs.
type batchMemo struct {
	key isa.Program
	sp  *shardedProgram
}

// names reports whether the memo's program reads or writes handle h.
func (m *batchMemo) names(h uint16) bool {
	for _, in := range m.key {
		if slices.Contains(in.Reads(), h) || slices.Contains(in.Writes(), h) {
			return true
		}
	}
	return false
}

// takeMemo removes the memo entry and returns it when it was prepared
// from an instruction sequence equal to prog and is still live on every
// channel; otherwise the entry is dropped and the caller prepares anew.
// Removing the entry while it runs keeps overlapping calls from sharing
// a ctrl.Prepared, which supports serial runs only.
func (c *Cluster) takeMemo(prog isa.Program) *batchMemo {
	c.memoMu.Lock()
	m := c.memo
	c.memo = nil
	c.memoMu.Unlock()
	if m == nil || !slices.Equal(m.key, prog) || c.checkSharded(m.sp) != nil {
		return nil
	}
	return m
}

// dropMemo drops ExecBatch's memo entry, if any.
func (c *Cluster) dropMemo() {
	c.memoMu.Lock()
	c.memo = nil
	c.memoMu.Unlock()
}

// shardedProgram is a cluster-wide bbop program bound once: validated,
// sharded, and prepared on every channel with work. ExecBatch's memo
// and ClusterCompiled keep one; runSharded replays it.
type shardedProgram struct {
	pp  []*preparedProgram // channel → its prepared share, nil if idle
	ran []int              // the channels with work
	// Per-run scratch, so a replay allocates only what it returns.
	perCh []ctrl.BatchStats
	opNs  []float64
}

// prepareSharded validates and shards a program, then prepares every
// channel's share, the channels in parallel, before any channel runs:
// a share that fails to prepare fails the call with no command issued.
func (c *Cluster) prepareSharded(prog isa.Program) (*shardedProgram, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	subProgs, ran, err := c.shardProgram(prog)
	if err != nil {
		return nil, err
	}
	k := len(c.channels)
	sp := &shardedProgram{
		pp: make([]*preparedProgram, k), ran: ran,
		perCh: make([]ctrl.BatchStats, k), opNs: make([]float64, len(prog)),
	}
	err = cluster.Dispatch(ran, func(_, ch int) error {
		var err error
		sp.pp[ch], err = c.channels[ch].prepareProgram(subProgs[ch])
		return err
	})
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// checkSharded re-verifies a prepared program before any channel runs
// it: every channel's share (see System.checkPrepared), each stale
// channel reported the way Dispatch annotates failures. A freed or
// replaced cluster object shows up here too: freeing a ShardedVector
// frees its part on every channel it spans, and each such part is bound
// in that channel's share.
func (c *Cluster) checkSharded(sp *shardedProgram) error {
	var errs []error
	for _, ch := range sp.ran {
		if err := c.channels[ch].checkPrepared(sp.pp[ch]); err != nil {
			errs = append(errs, fmt.Errorf("channel %d: %w", ch, err))
		}
	}
	return errors.Join(errs...)
}

// shardProgram splits a cluster-wide bbop program by shard: handles and
// element counts are rewritten per channel, and channels whose
// rewritten sub-program is empty (every referenced shard zero-sized
// there) are dropped. ran lists the channels with work, the indices
// valid into subProgs.
//
// Each object's share of every channel is looked up through dense
// tables indexed by the handle's rank among the program's handles
// (isa.HandleSet), like the System's handle table, in storage
// recycled from call to call.
func (c *Cluster) shardProgram(prog isa.Program) (subProgs []isa.Program, ran []int, err error) {
	k := len(c.channels)
	sc := shardPool.Get().(*shardScratch)
	defer shardPool.Put(sc)
	rk := &sc.rank
	defer rk.Reset()
	rk.MarkNamed(prog)
	nh := rk.Seal()
	// shares[ch*nh+rank] is the object's share of channel ch: the zero
	// entry (no handle, no elements) until the object is mapped, and for
	// a channel the object has no part on.
	shares := sized(sc.shares, k*nh)
	mapped := sized(sc.mapped, nh) // rank → the object's shares are filled
	sc.shares, sc.mapped = shares, mapped
	for i := range prog {
		in := &prog[i]
		var buf [4]uint16
		handles := buf[:0]
		if in.Op.IsOperation() {
			handles = append(handles, in.Dst)
		}
		handles = append(handles, in.Reads()...)
		var first *ShardedVector
		for _, h := range handles {
			sv, ok := c.objects[h]
			if !ok {
				return nil, nil, errorf("instruction %d (%s): unknown cluster object %d", i, *in, h)
			}
			if first == nil {
				first = sv
			} else if !sv.plan.Equal(first.plan) {
				return nil, nil, errorf(
					"instruction %d (%s): objects %d and %d are not shard-aligned (allocate operand groups with the same length and placement)",
					i, *in, first.handle, h)
			}
			r := rk.Of(h)
			if mapped[r] {
				continue
			}
			mapped[r] = true
			for pi, span := range sv.plan.Spans {
				shares[span.Channel*nh+r] = shardShare{h: sv.parts[pi].Handle(), n: uint32(span.Count)}
			}
		}
	}
	subProgs = make([]isa.Program, k)
	for ch := 0; ch < k; ch++ {
		tab := shares[ch*nh : (ch+1)*nh]
		sub, err := prog.Rewrite(func(h uint16) (uint16, uint32, bool) {
			sh := tab[rk.Of(h)]
			return sh.h, sh.n, true
		})
		if err != nil {
			return nil, nil, err
		}
		if len(sub) > 0 {
			subProgs[ch] = sub
			ran = append(ran, ch)
		}
	}
	return subProgs, ran, nil
}

// shardShare is one object's share of one channel: its part's handle
// there (0 when it has no part on the channel) and element count.
type shardShare struct {
	h uint16
	n uint32
}

// shardScratch is shardProgram's working storage: the program's
// handles, ranked, and the share tables indexed by rank.
type shardScratch struct {
	rank   isa.HandleSet
	shares []shardShare
	mapped []bool
}

var shardPool = sync.Pool{New: func() any { return new(shardScratch) }}

// runSharded runs a prepared program — checked by the caller — on its
// channels in parallel and merges the results under the cluster's
// timing model. opNs[i] is the slowest channel's modeled busy time for
// instruction i (the shard that bounds it), sp's own buffer; it is nil
// when a channel's rewritten sub-program dropped instructions
// (zero-sized shards), which breaks index alignment.
func (c *Cluster) runSharded(sp *shardedProgram) (ClusterBatchStats, []float64, error) {
	clear(sp.perCh)
	err := cluster.Dispatch(sp.ran, func(_, ch int) error {
		st, _, err := c.channels[ch].execPrepared(sp.pp[ch], nil, nil)
		sp.perCh[ch] = st
		return err
	})
	if err != nil {
		return ClusterBatchStats{}, nil, err
	}
	// Per-channel dispatch distributions: each participating channel's
	// modeled critical path for this batch.
	c.batches.Inc()
	for _, ch := range sp.ran {
		c.dispatch[ch].Observe(int64(sp.perCh[ch].CriticalPathNs))
		c.energy[ch].Add(sp.perCh[ch].EnergyPJ)
		c.commands[ch].Add(uint64(sp.perCh[ch].Commands))
	}
	st := cluster.Merge(sp.perCh)
	// Per-op attribution: the instruction's latency is its slowest
	// shard. Only attributable when every participating channel ran the
	// full program (a dropped zero-sized shard would shift indices).
	opNs := sp.opNs
	clear(opNs)
	for _, ch := range sp.ran {
		chOp := sp.pp[ch].opNs
		if len(chOp) != len(opNs) {
			opNs = nil
			break
		}
		for i, d := range chOp {
			if d > opNs[i] {
				opNs[i] = d
			}
		}
	}
	return st, opNs, nil
}

// Run executes the named operation across the cluster: dst[i] =
// op(srcs[0][i], …). It is the one-instruction convenience over
// ExecBatch; all vectors must be shard-aligned.
func (c *Cluster) Run(opName string, dst *ShardedVector, srcs ...*ShardedVector) (ClusterBatchStats, error) {
	d, err := ops.ByName(opName)
	if err != nil {
		return ClusterBatchStats{}, err
	}
	if len(srcs) == 0 || len(srcs) > 3 {
		return ClusterBatchStats{}, errorf("%s: ISA encodes 1-3 source objects, have %d", opName, len(srcs))
	}
	// Handles are recycled after Free and scoped per cluster, so a
	// stale or foreign vector's handle may name an unrelated object in
	// c.objects — reject both here, while we still hold the caller's
	// pointers.
	if dst.freed {
		return ClusterBatchStats{}, errorf("%s: destination freed", opName)
	}
	if dst.cl != c {
		return ClusterBatchStats{}, errorf("%s: destination belongs to a different cluster", opName)
	}
	for k, src := range srcs {
		if src.freed {
			return ClusterBatchStats{}, errorf("%s: source %d freed", opName, k)
		}
		if src.cl != c {
			return ClusterBatchStats{}, errorf("%s: source %d belongs to a different cluster", opName, k)
		}
	}
	in := isa.Instruction{
		Op:    isa.FromOp(d.Code),
		Dst:   dst.handle,
		Size:  uint32(dst.n),
		Width: uint8(srcs[0].width),
		N:     uint8(len(srcs)),
	}
	for i, src := range srcs {
		in.Src[i] = src.handle
	}
	return c.ExecBatch(isa.Program{in})
}
