// Package system assembles the full simulated machine of §VI-A: cores
// (package cpu) with private L1 data caches, a shared L2 per 4-core
// cluster, a MESI reverse directory per memory controller, a mesh NoC
// (package noc) between clusters and controllers, and one memory
// controller per channel (package memctrl) over the DRAM device model
// (package dram). Run executes a workload assignment to completion and
// returns the paper's metrics: IPC, power breakdown, EDP inputs,
// row-buffer and predictor statistics.
//
// Modeling notes (deviations from the paper's McSimA+ setup, see
// DESIGN.md): instruction fetch is assumed to hit the L1I (the studied
// workloads are data-bound); cache bank conflicts are not modeled; L2
// miss coherence latency is charged as directory-outcome hops times the
// requester↔controller mesh latency.
package system

import (
	"fmt"
	"math/bits"

	"microbank/internal/cache"
	"microbank/internal/config"
	"microbank/internal/cpu"
	"microbank/internal/energy"
	"microbank/internal/memctrl"
	"microbank/internal/noc"
	"microbank/internal/obs"
	"microbank/internal/sim"
	"microbank/internal/stats"
	"microbank/internal/workload"
)

// Spec describes one simulation run.
type Spec struct {
	Sys config.System
	// Profiles assigns a workload to each populated core; its length
	// must equal Sys.Cores.
	Profiles     []workload.Profile
	InstrPerCore uint64
	// WarmupInstr excludes each core's first WarmupInstr instructions
	// from every reported metric (cache/row-buffer warm-up), the
	// SimPoint-style measured-region convention. Must be less than
	// InstrPerCore.
	WarmupInstr uint64
	Seed        int64
	// GeneratorFor, when non-nil, overrides the synthetic generator for
	// each core (trace replay via workload.Trace, custom generators,
	// ...). Profiles[core] still supplies DepFrac for the core model.
	GeneratorFor func(core int) workload.Generator `json:"-"`
	// Obs, when non-nil, enables observability for the run: component
	// metrics register into Obs.Registry, Obs.Sampler (if set) snapshots
	// them every epoch, and Obs.Tracer (if set) records every DRAM
	// command. Observation is read-only — results are bit-identical with
	// or without it.
	Obs *obs.Observer `json:"-"`
	// Limits, when non-nil and armed, bounds the run (wall-clock
	// deadline, event budget, context cancellation, livelock watchdog);
	// a tripped limit returns a *LimitError. Nil runs unbounded with an
	// untouched hot path.
	Limits *Limits `json:"-"`
}

// Result carries every metric the experiments report.
type Result struct {
	// IPC is the sum of per-core IPCs (identical to single-core IPC
	// when one core is populated).
	IPC       float64
	PerCore   []cpu.Stats
	RuntimePS sim.Time

	Mem       memctrl.Stats // aggregated over controllers
	Breakdown energy.Breakdown

	// MAPKI is measured main-memory accesses per kilo-instruction.
	MAPKI float64
	// RowHitRate is the serviced-from-open-row fraction.
	RowHitRate float64
	// PredHitRate is the page-decision accuracy (Fig. 13).
	PredHitRate float64
	// AvgReadLatencyNS is the mean controller read latency.
	AvgReadLatencyNS float64
	// L1HitRate / L2HitRate summarize the hierarchy.
	L1HitRate float64
	L2HitRate float64
	// NoCAvgHops is mean hops per NoC packet.
	NoCAvgHops float64

	// QoS tail-latency and fairness metrics, computed from the
	// per-thread request-latency histograms the controllers keep
	// (arrival to data completion, reads and writes). Histograms
	// cannot be warm-subtracted, so unlike the averages above these
	// cover the WHOLE run including warm-up.
	//
	// LatP50NS..LatMaxNS are quantiles of the all-thread merged
	// histogram; MaxSlowdown is worst-thread mean over best-thread
	// mean (>= 1); FairnessIndex is Jain's index over per-thread
	// means (1 = perfectly even service).
	LatP50NS      float64
	LatP95NS      float64
	LatP99NS      float64
	LatMaxNS      float64
	MaxSlowdown   float64
	FairnessIndex float64
	// ThreadLat holds the merged-across-channels per-thread latency
	// histograms the metrics above were computed from (indexed by
	// hardware thread; threads with no requests have zero counts).
	ThreadLat []stats.Histogram
}

// machine is the assembled hardware for one run.
type machine struct {
	eng   *sim.Engine
	spec  Spec
	mesh  *noc.Mesh
	ctrls []*memctrl.Controller
	dirs  []*cache.Directory
	l2s   []*cache.Cache
	l1s   []*cache.Cache
	cores []*cpu.Core
	// synth holds the generators the machine built itself; release
	// returns their storage, never that of Spec.GeneratorFor's.
	synth  []*workload.Synthetic
	l2Wait [][]func() bool // stalled L1 fills per L2

	// txnFree pools retired memTxn records so the steady-state miss and
	// writeback paths allocate neither closures nor request records.
	txnFree []*memTxn

	finished int
	lastEnd  sim.Time

	warmCount int
	warmTime  sim.Time
	warmSnap  *rawCounters

	// wdChecks counts watchdog hook invocations (exported through obs
	// as sys.watchdog_checks when limits are armed).
	wdChecks uint64
}

// memTxn is a pooled memory-transaction record: one L2 miss (DRAM fill
// or cache-to-cache transfer) or one dirty writeback. Every leg's
// callback is wired once when the record is first allocated, so reuse
// through the pool makes the whole transaction closure-free.
type memTxn struct {
	m     *machine
	ch    int // home memory channel
	src   int // requester mesh node
	dst   int // controller mesh node
	extra sim.Time
	done  func(at sim.Time)
	req   memctrl.Request

	// reqArrived fires when the request leg lands at the controller
	// node: enqueue the embedded DRAM request (read fill or posted
	// write).
	reqArrived func(at sim.Time)
	// sendReply launches the data-bearing reply leg. It serves both as
	// the cache-to-cache forward (deliver callback of the request leg)
	// and as the DRAM read's Done callback; both ignore their time
	// argument, exactly as the closures they replace did.
	sendReply func(at sim.Time)
	// replyDone fires when the reply lands back at the requester:
	// complete the miss and recycle the record.
	replyDone func(at sim.Time)
}

// allocTxn returns a pooled or freshly wired transaction record.
func (m *machine) allocTxn() *memTxn {
	if n := len(m.txnFree); n > 0 {
		t := m.txnFree[n-1]
		m.txnFree[n-1] = nil
		m.txnFree = m.txnFree[:n-1]
		return t
	}
	t := &memTxn{m: m}
	t.reqArrived = func(sim.Time) { t.m.ctrls[t.ch].Enqueue(&t.req) }
	t.sendReply = func(sim.Time) { t.m.mesh.Send(t.dst, t.src, 16+64, t.replyDone) }
	t.replyDone = func(at sim.Time) {
		d, extra := t.done, t.extra
		t.m.recycleTxn(t)
		d(at + extra)
	}
	return t
}

// recycleTxn returns a finished record to the pool, dropping callback
// references so pooled records don't pin caller state.
func (m *machine) recycleTxn(t *memTxn) {
	t.done = nil
	t.req.Done = nil
	t.req.Owner = nil
	m.txnFree = append(m.txnFree, t)
}

// reqRetired is the controllers' OnRetire hook. Posted writes have no
// Done/reply leg, so retirement is their completion: recycle the record
// here. Read fills recycle on the reply leg instead (their Done event
// may still be in flight at retirement).
func (m *machine) reqRetired(r *memctrl.Request) {
	if r.Done != nil {
		return
	}
	if t, ok := r.Owner.(*memTxn); ok {
		m.recycleTxn(t)
	}
}

// rawCounters is a monotone snapshot used to subtract warm-up activity.
type rawCounters struct {
	mem        memctrl.Stats
	l1a, l1h   uint64
	l2a, l2h   uint64
	nocPackets uint64
	nocHops    uint64
}

func (m *machine) snapshotCounters() *rawCounters {
	rc := &rawCounters{mem: m.memAgg()}
	for _, c := range m.l1s {
		s := c.Stats()
		rc.l1a += s.Accesses
		rc.l1h += s.Hits
	}
	for _, c := range m.l2s {
		s := c.Stats()
		rc.l2a += s.Accesses
		rc.l2h += s.Hits
	}
	rc.nocPackets = m.mesh.Packets
	rc.nocHops = m.mesh.TotalHops
	return rc
}

// memAgg sums controller statistics.
func (m *machine) memAgg() memctrl.Stats {
	var mem memctrl.Stats
	for _, ctl := range m.ctrls {
		s := ctl.Stats()
		mem.Reads += s.Reads
		mem.Writes += s.Writes
		mem.RowHits += s.RowHits
		mem.RowOpens += s.RowOpens
		mem.RowConflictPres += s.RowConflictPres
		mem.Retired += s.Retired
		mem.QueueOccIntegral += s.QueueOccIntegral
		mem.ReadLatencyIntegralPS += s.ReadLatencyIntegralPS
		mem.PredDecisions += s.PredDecisions
		mem.PredRight += s.PredRight
		mem.RegDeferred += s.RegDeferred
		mem.Energy.ActPrePJ += s.Energy.ActPrePJ
		mem.Energy.RdWrPJ += s.Energy.RdWrPJ
		mem.Energy.IOPJ += s.Energy.IOPJ
		mem.Energy.RefreshPJ += s.Energy.RefreshPJ
		mem.Energy.LatchPJ += s.Energy.LatchPJ
		mem.Energy.Acts += s.Energy.Acts
		mem.Energy.Reads += s.Energy.Reads
		mem.Energy.Writes += s.Energy.Writes
		mem.Energy.Pres += s.Energy.Pres
		mem.Energy.Refreshes += s.Energy.Refreshes
	}
	return mem
}

// subStats returns a - b field-wise.
func subStats(a, b memctrl.Stats) memctrl.Stats {
	a.Reads -= b.Reads
	a.Writes -= b.Writes
	a.RowHits -= b.RowHits
	a.RowOpens -= b.RowOpens
	a.RowConflictPres -= b.RowConflictPres
	a.Retired -= b.Retired
	a.QueueOccIntegral -= b.QueueOccIntegral
	a.ReadLatencyIntegralPS -= b.ReadLatencyIntegralPS
	a.PredDecisions -= b.PredDecisions
	a.PredRight -= b.PredRight
	a.RegDeferred -= b.RegDeferred
	a.Energy.ActPrePJ -= b.Energy.ActPrePJ
	a.Energy.RdWrPJ -= b.Energy.RdWrPJ
	a.Energy.IOPJ -= b.Energy.IOPJ
	a.Energy.RefreshPJ -= b.Energy.RefreshPJ
	a.Energy.LatchPJ -= b.Energy.LatchPJ
	a.Energy.Acts -= b.Energy.Acts
	a.Energy.Reads -= b.Energy.Reads
	a.Energy.Writes -= b.Energy.Writes
	a.Energy.Pres -= b.Energy.Pres
	a.Energy.Refreshes -= b.Energy.Refreshes
	return a
}

// Run builds the machine and simulates until every core has committed
// its instruction budget. It returns an error if the simulation stops
// making progress before completion (a model bug, not a user error).
func Run(spec Spec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	m := build(spec)
	defer releaseMachine(m)
	if spec.Obs != nil {
		m.wireObs(spec.Obs)
		if spec.Obs.Sampler != nil {
			spec.Obs.Sampler.Start(m.eng)
		}
	}
	if spec.Limits.armed() {
		m.armWatchdog(spec.Limits)
	}
	for _, c := range m.cores {
		c.Start()
	}
	m.eng.Run()
	if err := m.eng.StopCause(); err != nil {
		return Result{}, err
	}
	if m.finished != len(m.cores) {
		return Result{}, &LimitError{Kind: LimitStall,
			Msg:  fmt.Sprintf("stalled with %d/%d cores finished (events drained)", m.finished, len(m.cores)),
			Diag: m.diag()}
	}
	return m.collect(), nil
}

// build assembles the machine for one run on a fresh engine.
func build(spec Spec) *machine {
	sys := spec.Sys
	eng := sim.NewEngine()
	clusters := (sys.Cores + sys.CoresPerL2 - 1) / sys.CoresPerL2
	channels := sys.Mem.Org.Channels

	// Mesh must cover both clusters and controllers.
	dim := sys.MeshDim
	for dim*dim < clusters || dim*dim < channels {
		dim++
	}
	if clusters == 1 && channels == 1 {
		dim = 1
	}
	m := &machine{
		eng:  eng,
		spec: spec,
		mesh: noc.New(eng, dim, sys.NoCHopPS, 64),
	}

	corePeriod := sys.CoreClock().Period()

	retire := m.reqRetired
	for ch := 0; ch < channels; ch++ {
		ctl := memctrl.New(eng, sys.Mem, sys.Ctrl, sys.Cores)
		ctl.OnRetire = retire
		m.ctrls = append(m.ctrls, ctl)
		m.dirs = append(m.dirs, cache.NewDirectory(max(clusters, 1)))
	}

	m.l2Wait = make([][]func() bool, clusters)
	for cl := 0; cl < clusters; cl++ {
		cl := cl
		l2 := cache.New(eng, sys.L2, corePeriod,
			func(block uint64, write bool, thread int, done func(at sim.Time)) {
				m.l2Miss(cl, block, write, thread, done)
			},
			func(block uint64, thread int) {
				m.memWrite(cl, block, thread)
			})
		l2.OnEvict = func(block uint64) { m.l2Evicted(cl, block) }
		l2.OnMSHRFree = func() { m.drainL2Waiters(cl) }
		m.l2s = append(m.l2s, l2)
	}

	for core := 0; core < sys.Cores; core++ {
		core := core
		cl := core / sys.CoresPerL2
		l1 := cache.New(eng, sys.L1D, corePeriod,
			func(block uint64, write bool, thread int, done func(at sim.Time)) {
				m.l1Miss(cl, block, write, thread, done)
			},
			func(block uint64, thread int) {
				// L1 dirty victim: update the shared L2 (posted).
				if !m.l2s[cl].Access(block, true, core, nil) {
					m.l2Wait[cl] = append(m.l2Wait[cl], func() bool {
						return m.l2s[cl].Access(block, true, core, nil)
					})
				}
			})
		m.l1s = append(m.l1s, l1)

		prof := spec.Profiles[core]
		var gen workload.Generator
		if spec.GeneratorFor != nil {
			gen = spec.GeneratorFor(core)
		} else {
			s := workload.NewSynthetic(prof, core%63, spec.Seed)
			m.synth = append(m.synth, s)
			gen = s
		}
		params := cpu.Params{
			ID:          core,
			FreqMHz:     sys.Core.FreqMHz,
			IssueWidth:  sys.Core.IssueWidth,
			CommitWidth: sys.Core.CommitWidth,
			ROB:         sys.Core.ROBEntries,
			DepFrac:     prof.DepFrac,
			Budget:      spec.InstrPerCore,
			Warmup:      spec.WarmupInstr,
			Seed:        spec.Seed + int64(core)*131,
		}
		var cc *cpu.Core
		cc = cpu.New(eng, params, gen,
			func(addrV uint64, write bool, done func(at sim.Time)) bool {
				return l1.Access(addrV, write, core, done)
			},
			func(st cpu.Stats) {
				m.finished++
				if st.FinishAt > m.lastEnd {
					m.lastEnd = st.FinishAt
				}
			})
		l1.OnMSHRFree = cc.Kick
		if spec.WarmupInstr > 0 {
			cc.OnWarm = m.coreWarmed
		}
		m.cores = append(m.cores, cc)
	}
	return m
}

// releaseMachine is how Run hands a finished machine's storage back;
// tests swap it to compare against runs that release nothing.
var releaseMachine = (*machine).release

// release returns the machine's per-run storage to the reuse store for
// later runs: tag arrays, directory tables, controller and DRAM bank
// tables, core rings, random sources and the engine. What a Result, an
// obs gauge or a tracer reads stays readable afterwards (see each
// component's Release).
func (m *machine) release() {
	for _, c := range m.l1s {
		c.Release()
	}
	for _, c := range m.l2s {
		c.Release()
	}
	for _, d := range m.dirs {
		d.Release()
	}
	for _, ctl := range m.ctrls {
		ctl.Release()
	}
	for _, c := range m.cores {
		c.Release()
	}
	for _, g := range m.synth {
		g.Release()
	}
	m.eng.Release()
}

// l1Miss forwards an L1 fill to the cluster's L2, with retry when the
// L2's MSHRs are busy.
func (m *machine) l1Miss(cluster int, block uint64, write bool, thread int, done func(at sim.Time)) {
	if m.l2s[cluster].Access(block, write, thread, done) {
		return
	}
	m.l2Wait[cluster] = append(m.l2Wait[cluster], func() bool {
		return m.l2s[cluster].Access(block, write, thread, done)
	})
}

func (m *machine) drainL2Waiters(cluster int) {
	w := m.l2Wait[cluster]
	m.l2Wait[cluster] = m.l2Wait[cluster][:0]
	for i, try := range w {
		if !try() {
			// Still full: requeue the remainder in order.
			m.l2Wait[cluster] = append(m.l2Wait[cluster], w[i:]...)
			return
		}
	}
}

// clusterNode maps a cluster to its mesh node; ctrlNode a channel.
func (m *machine) clusterNode(cl int) int { return cl % m.mesh.Nodes() }
func (m *machine) ctrlNode(ch int) int    { return ch % m.mesh.Nodes() }

// homeChannel returns the memory channel owning a block.
func (m *machine) homeChannel(block uint64) int {
	return m.ctrls[0].Mapper().Map(block).Channel
}

// l2Miss implements the L2 fill path: directory lookup, coherence
// actions, NoC transfer, and (usually) a main-memory access.
func (m *machine) l2Miss(cluster int, block uint64, write bool, thread int, done func(at sim.Time)) {
	ch := m.homeChannel(block)
	out := m.dirs[ch].Fill(block, cluster, write)
	src := m.clusterNode(cluster)
	dst := m.ctrlNode(ch)

	// Apply coherence actions to the victim caches now, in ascending
	// node order; their latency is charged to the requester as extra
	// hops below.
	for inv := out.Invalidate; inv != 0; inv &= inv - 1 {
		m.l2s[bits.TrailingZeros64(inv)].Invalidate(block)
	}
	for dg := out.Downgrade; dg != 0; dg &= dg - 1 {
		m.l2s[bits.TrailingZeros64(dg)].Downgrade(block)
	}
	extra := sim.Time(out.ExtraHops) * m.mesh.Latency(src, dst)

	t := m.allocTxn()
	t.ch, t.src, t.dst, t.extra, t.done = ch, src, dst, extra, done
	if !out.NeedMem {
		// Cache-to-cache transfer: request + forwarded line, no DRAM.
		m.mesh.Send(src, dst, 16, t.sendReply)
		return
	}
	t.req = memctrl.Request{
		Addr:   block,
		Write:  false, // fills read the line; dirtiness lives in the L2
		Thread: thread,
		Done:   t.sendReply,
		Owner:  t,
	}
	m.mesh.Send(src, dst, 16, t.reqArrived)
}

// l2Evicted handles an L2 victim: notify the directory and back-
// invalidate the cluster's L1s (inclusive hierarchy).
func (m *machine) l2Evicted(cluster int, block uint64) {
	ch := m.homeChannel(block)
	m.dirs[ch].Evict(block, cluster)
	lo := cluster * m.spec.Sys.CoresPerL2
	hi := lo + m.spec.Sys.CoresPerL2
	if hi > len(m.l1s) {
		hi = len(m.l1s)
	}
	for i := lo; i < hi; i++ {
		m.l1s[i].Invalidate(block)
	}
}

// memWrite sends an L2 dirty victim to memory (posted). The write's
// transaction record is recycled by the controller's OnRetire hook.
func (m *machine) memWrite(cluster int, block uint64, thread int) {
	ch := m.homeChannel(block)
	t := m.allocTxn()
	t.ch, t.src, t.dst, t.extra, t.done = ch, m.clusterNode(cluster), m.ctrlNode(ch), 0, nil
	t.req = memctrl.Request{Addr: block, Write: true, Thread: thread, Owner: t}
	m.mesh.Send(t.src, t.dst, 16+64, t.reqArrived)
}

// coreWarmed snapshots all counters once every core has crossed its
// warm-up boundary.
func (m *machine) coreWarmed() {
	m.warmCount++
	if m.warmCount == len(m.cores) {
		m.warmSnap = m.snapshotCounters()
		m.warmTime = m.eng.Now()
	}
}

// collect aggregates the run's statistics.
func (m *machine) collect() Result {
	sys := m.spec.Sys
	var res Result
	res.RuntimePS = m.lastEnd
	period := sys.CoreClock().Period()

	var instr uint64
	for _, c := range m.cores {
		st := c.Stats()
		res.PerCore = append(res.PerCore, st)
		res.IPC += st.IPC(period)
		instr += st.Instructions - st.WarmInstr
	}

	end := m.snapshotCounters()
	warm := m.warmSnap
	if warm == nil {
		warm = &rawCounters{}
	} else {
		res.RuntimePS = m.lastEnd - m.warmTime
	}
	mem := subStats(end.mem, warm.mem)
	res.Mem = mem
	res.RowHitRate = mem.RowHitRate()
	res.PredHitRate = mem.PredictorHitRate()
	res.AvgReadLatencyNS = mem.AvgReadLatencyNS()
	res.MAPKI = float64(mem.Reads+mem.Writes) / (float64(instr) / 1000.0)

	staticMW := sys.Mem.Energy.StaticMWPerRank * float64(sys.Mem.Org.Channels*sys.Mem.Org.RanksPerChan)
	res.Breakdown = energy.Compute(instr, sys.CoreEnergyPJPerOp, mem.Energy, staticMW, res.RuntimePS)

	if a := end.l1a - warm.l1a; a > 0 {
		res.L1HitRate = float64(end.l1h-warm.l1h) / float64(a)
	}
	if p := end.nocPackets - warm.nocPackets; p > 0 {
		res.NoCAvgHops = float64(end.nocHops-warm.nocHops) / float64(p)
	}
	if a := end.l2a - warm.l2a; a > 0 {
		res.L2HitRate = float64(end.l2h-warm.l2h) / float64(a)
	}
	m.collectQoS(&res)
	return res
}

// collectQoS merges the controllers' per-thread latency histograms and
// derives the tail-latency/fairness metrics. Histograms are whole-run
// (no warm subtraction is possible); see the Result field docs.
func (m *machine) collectQoS(res *Result) {
	threads := 0
	for _, ctl := range m.ctrls {
		if n := len(ctl.ThreadLatencies()); n > threads {
			threads = n
		}
	}
	if threads == 0 {
		return
	}
	res.ThreadLat = make([]stats.Histogram, threads)
	for _, ctl := range m.ctrls {
		for t, h := range ctl.ThreadLatencies() {
			hh := h
			res.ThreadLat[t].Merge(&hh)
		}
	}
	var all stats.Histogram
	for t := range res.ThreadLat {
		all.Merge(&res.ThreadLat[t])
	}
	if all.Count() == 0 {
		return
	}
	res.LatP50NS = float64(all.Quantile(0.50)) / 1000.0
	res.LatP95NS = float64(all.Quantile(0.95)) / 1000.0
	res.LatP99NS = float64(all.Quantile(0.99)) / 1000.0
	res.LatMaxNS = float64(all.Max()) / 1000.0
	res.MaxSlowdown = stats.MaxSlowdown(res.ThreadLat)
	res.FairnessIndex = stats.FairnessIndex(res.ThreadLat)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// UniformSpec builds a Spec running the same profile on every core.
func UniformSpec(sys config.System, prof workload.Profile, instr uint64, seed int64) Spec {
	profs := make([]workload.Profile, sys.Cores)
	for i := range profs {
		profs[i] = prof
	}
	return Spec{Sys: sys, Profiles: profs, InstrPerCore: instr, Seed: seed}
}

// MixSpec builds a Spec assigning a multiprogrammed mix round-robin.
func MixSpec(sys config.System, mix workload.Mix, instr uint64, seed int64) Spec {
	profs := make([]workload.Profile, sys.Cores)
	for i := range profs {
		profs[i] = mix.ForCore(i)
	}
	return Spec{Sys: sys, Profiles: profs, InstrPerCore: instr, Seed: seed}
}
