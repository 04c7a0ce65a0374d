package fleet

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"vsched/internal/cloudgen"
	"vsched/internal/faults"
	"vsched/internal/metrics"
	"vsched/internal/progress"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// The macro fleet simulator. The micro fleet (fleet.go) simulates every
// vCPU, thread and scheduler decision — priceless for fidelity, hopeless at
// 1024 hosts x 100k VM lifetimes x 48 hours. Macro keeps the control plane
// exact (the same placement policies, the same HostIndex, the same
// steal-EMA signal) and replaces the data plane with an analytic contention
// model integrated epoch by epoch:
//
//	demand D  = sum over live VMs of vcpus * per-vCPU demand weight
//	rho       = min(1, threads / D)       delivered fraction of demand
//	steal    += demand * (1 - rho) * dt   per VM, the vSched-visible signal
//	progress += rho * speed * dt          per batch vCPU, stretching makespan
//
// Everything is quantized to the epoch: arrivals in [t, t+E) place at t (in
// ascending (At, ID) order), departures due by t leave at t, and rho holds
// for the whole epoch. A batch VM whose budget drains mid-epoch stops
// accruing steal at its analytic completion instant (that instant is the
// makespan contribution) but frees its commitment at the next boundary.
//
// Scale: state is flat value-typed arrays (one macroVM, one macroHost per
// entity — no pointers into the engine), and the epoch integration shards
// across contiguous host ranges on real goroutines inside a single engine
// callback. Each host's VMs live on exactly one shard, so the parallel phase
// writes disjoint state; every cross-host reduction (DI, snapshot, placement)
// runs serially in host order afterwards. Serial and sharded runs are
// byte-identical — the fleetscale experiment panics if not.
type MacroConfig struct {
	Trace cloudgen.Trace
	// Policy places arriving VMs through the HostIndex (O(log hosts) per
	// placement).
	Policy Policy
	// Epoch is the integration step (default 60s of virtual time).
	Epoch sim.Duration
	// Shards is the number of worker goroutines for the epoch integration;
	// <= 1 runs serially. Results are identical either way.
	Shards int
	// Horizon overrides Trace.Horizon when > 0.
	Horizon sim.Duration
	// Telemetry, when non-nil, attaches a flight recorder sampling the
	// fleet-wide aggregates (fleet.macro.*) and the cell registry.
	Telemetry *telemetry.Config
	// Observe, when non-nil, is called with the cell's engine before the
	// run starts (the experiments harness uses it to track effort and
	// propagate interrupts).
	Observe func(*sim.Engine)
	// Faults, when non-nil, injects the host fault schedule: crashes kill
	// resident VMs, brownouts shrink effective capacity, stalls freeze
	// progress for an epoch's worth of time. Fault effects quantize to the
	// epoch grid the way arrivals do: an event lands at the boundary of the
	// epoch containing it, and a fault is active for an epoch iff it is
	// active at that epoch's start.
	Faults *faults.Schedule
	// Recovery enables the reaction to faults: crash victims and rejected
	// arrivals enter a bounded pending-retry queue with capped exponential
	// backoff, and VMs on degraded hosts evacuate through the placement
	// policy (the macro tier's migration mechanism). Disabled, crash
	// victims are lost and rejections are terminal — the graceful-
	// degradation baseline.
	Recovery faults.RecoveryConfig
	// Obs, when non-nil, receives structured run progress (run start/done,
	// per-epoch conservation ledgers, fault and recovery events) and mirror
	// snapshots of the cell registry, telemetry tails and engine self-census
	// for live HTTP observation. Publishing is inert by construction: every
	// publish happens at a serial safepoint (epoch boundaries) through the
	// lock-free bus/mirror handoff, writes only fixed-size snapshots, and
	// reads nothing back — results are byte-identical with or without it.
	Obs *progress.Publisher
	// ObsLabel names the run in published events (default: the policy name).
	ObsLabel string
}

// MacroResult is one macro cell's outcome.
type MacroResult struct {
	Policy   string
	Hosts    int
	Arrivals int
	Placed   int
	Rejected int
	// Lifetimes counts completed VM lifetimes (departures) inside the
	// horizon; VMs still resident at the end are not lifetimes.
	Lifetimes int
	// Events counts units of simulation work: placements, departures and
	// per-VM epoch integrations.
	Events uint64
	// DIMean / DIMax summarize the per-epoch degree of imbalance
	// (max-min)/avg of host utilization, the CloudSim load-balance metric.
	DIMean, DIMax float64
	// Makespan is the completion instant of the last batch VM (0 if none
	// completed).
	Makespan sim.Time
	// P95Steal is the 95th-percentile per-VM steal fraction
	// steal/(steal+served) over every VM that demanded CPU.
	P95Steal float64
	// TotalStealHours is fleet-wide accumulated steal in vCPU-hours.
	TotalStealHours float64
	// Fault-plane outcome. Crashes/Brownouts/Stalls count applied host
	// fault events; Killed counts VM kills by crashes (a VM crashing twice
	// counts twice); Restarts successful re-placements; Evacuations VM
	// moves off degraded hosts; EvacFailures aborted evacuation attempts
	// (the migration-failure law); Lost terminal losses (retry budget or
	// queue overflow — or every crash victim when recovery is off);
	// PendingAtEnd VMs still waiting in the retry queue at the horizon;
	// RunningAtEnd VMs alive at the horizon. Conservation holds exactly:
	// Arrivals processed == Lifetimes + Lost + Rejected + RunningAtEnd +
	// PendingAtEnd (RunMacro panics otherwise).
	Crashes, Brownouts, Stalls int
	Killed, Restarts, Lost     int
	Evacuations, EvacFailures  int
	PendingAtEnd, RunningAtEnd int
	// Availability is committed vCPU-seconds over committed plus crash-
	// outage vCPU-seconds (1.0 when nothing ever crashed). MTTRMean/MTTRMax
	// summarize restart time-to-recover in seconds; LostVCPUHours is batch
	// progress destroyed by crashes; DownVCPUHours the capacity-weighted
	// outage time of crash victims.
	Availability      float64
	MTTRMean, MTTRMax float64
	LostVCPUHours     float64
	DownVCPUHours     float64
	// Snapshot is the canonical byte encoding of final simulation state;
	// serial and sharded runs of the same config must produce identical
	// bytes.
	Snapshot []byte
	// Registry exposes the cell's counters; Telemetry the recorder when
	// configured.
	Registry  *metrics.Registry
	Telemetry *telemetry.Recorder
}

// VM lifecycle states for the conservation ledger: every trace VM that
// arrived is in exactly one, and result() panics if the counts don't add up.
const (
	vmUnborn    uint8 = iota // not yet arrived
	vmRunning                // placed and alive
	vmPending                // in the retry queue (crash victim or admission retry)
	vmCompleted              // departed inside the horizon
	vmLost                   // terminally lost (crash + retry budget/queue/no recovery)
	vmRejected               // terminally rejected at admission
)

// macroVM is one VM's compact bookkeeping (no per-vCPU state). While the VM
// is alive its host's macroLive record owns work, served, steal and done;
// the copies here are stale until flushLive writes the record back.
type macroVM struct {
	at       sim.Time
	depart   sim.Time // service deadline; batch analytic completion once known
	work     float64  // batch: remaining per-vCPU seconds of compute
	origWork float64  // batch: full budget, for crash lost-progress accounting
	demand   float64  // per-vCPU demand weight while alive
	steal    float64  // accumulated stolen vCPU-seconds
	served   float64  // accumulated delivered vCPU-seconds
	// downSince marks the kill instant of a crash victim awaiting restart
	// (time-to-recover accounting).
	downSince sim.Time
	host      int32
	restarts  int32
	vcpus     int16
	state     uint8
	batch     bool
	alive     bool
	done      bool // batch budget drained, awaiting boundary departure
}

// macroHost is one host's compact bookkeeping.
type macroHost struct {
	threads   int32
	capacity  int32 // admission bound: overcommit * threads
	committed int32
	speed     float64
	stealEMA  float64
	util      float64 // last epoch's min(1, D/threads)
	// live holds the hot state of the resident VMs in placement order; only
	// push, removeAt and dropAll change its membership. demand caches
	// sum(w) over live, summed in that order; stale marks a membership
	// change since the last sum.
	live   []macroLive
	demand float64
	stale  bool
	// Fault windows, set serially at epoch boundaries. The host is down
	// (crashed) while downUntil > t, degraded to degradeFactor x capacity
	// while degradedUntil > t, and frozen (rho = 0) while stallUntil > t.
	downUntil     sim.Time
	degradedUntil sim.Time
	stallUntil    sim.Time
	degradeFactor float64
}

// macroLive is a live VM's integration state, owned by its host: the only
// copy of work, served, steal and done while the VM is alive, contiguous with
// its host's other residents so an epoch walks one slice instead of chasing
// ids into the VM table. w = vcpus * demand is fixed for the VM's stay.
type macroLive struct {
	id                  int32
	batch, done         bool
	w                   float64
	work, served, steal float64
}

// liveRecord builds VM id's host record from its table entry at admission or
// restart.
func (m *macroSim) liveRecord(id int32) macroLive {
	vm := &m.vms[id]
	return macroLive{
		id:     id,
		batch:  vm.batch,
		done:   vm.done,
		w:      float64(vm.vcpus) * vm.demand,
		work:   vm.work,
		served: vm.served,
		steal:  vm.steal,
	}
}

// push appends a resident at the end of h's placement order.
func (h *macroHost) push(l macroLive) {
	h.live = append(h.live, l)
	h.stale = true
}

// removeAt drops resident k, keeping the others in placement order.
func (h *macroHost) removeAt(k int) {
	h.live = slices.Delete(h.live, k, k+1)
	h.stale = true
}

// dropAll drops every resident.
func (h *macroHost) dropAll() {
	h.live = h.live[:0]
	h.stale = true
}

// demandSum returns sum(w) over the residents in placement order, re-summed
// only after a membership change. A fresh sum would add the same addends in
// the same order, so reusing the cached one cannot change a bit.
func (h *macroHost) demandSum() float64 {
	if h.stale {
		sum := 0.0
		for k := range h.live {
			sum += h.live[k].w
		}
		h.demand, h.stale = sum, false
	}
	return h.demand
}

// flushLive writes a live record's owned state back to the VM table.
func (m *macroSim) flushLive(l *macroLive) {
	vm := &m.vms[l.id]
	vm.done = l.done
	vm.work = l.work
	vm.served = l.served
	vm.steal = l.steal
}

// macroAgg is the fleet-wide aggregate block the telemetry source samples.
type macroAgg struct {
	alive, committed    float64
	utilMean, utilMax   float64
	di, stealEMAMean    float64
	hostsDown           float64
	hostsDegraded       float64
	hostsStalled        float64
	pendingRetry        float64
	restarts, lost      float64
	evacuations, killed float64
}

// retryEntry is one VM waiting in the bounded pending-retry queue: a crash
// victim awaiting restart, or a rejected arrival awaiting re-admission.
type retryEntry struct {
	id      int32
	admit   bool     // admission retry (never placed) vs crash restart
	attempt int32    // 1-based attempt number this entry represents
	readyAt sim.Time // boundary at/after which the attempt runs
	// remaining is a crashed service VM's unserved wall-clock lifetime,
	// resumed on restart. Batch VMs restart with their full budget (the
	// destroyed progress is lost work).
	remaining sim.Duration
}

type macroSim struct {
	cfg     MacroConfig
	eng     *sim.Engine
	reg     *metrics.Registry
	rec     *telemetry.Recorder
	hosts   []macroHost
	vms     []macroVM
	ix      *HostIndex
	next    int // first trace VM not yet arrived
	horizon sim.Time
	now     sim.Time // current boundary time (effective-capacity clock)

	placed, rejected, departed int
	events                     uint64
	diSum, diMax               float64
	diEpochs                   int
	makespan                   sim.Time
	agg                        macroAgg

	// Fault plane. sched is the injected schedule (nil = no faults), rec
	// the recovery policy (zero = disabled), nextFault the cursor into
	// sched.Events, retryQ the bounded pending queue, migAttempts the
	// deterministic counter feeding the migration-failure law.
	sched       *faults.Schedule
	rcv         faults.RecoveryConfig
	nextFault   int
	retryQ      []retryEntry
	migAttempts uint64

	// Live progress publishing (nil obs = detached). obsLabel and the
	// per-fault-kind detail labels are interned once at setup so the
	// per-event publish path allocates nothing.
	obs        *progress.Publisher
	obsLabel   int32
	faultLabel [3]int32
	epochIdx   int64

	crashes, brownouts, stalls int
	killed, restarts, lost     int
	evacuations, evacFailures  int
	upVCPUSeconds              float64
	downVCPUSeconds            float64
	lostVCPUSeconds            float64
	ttrSum, ttrMax             float64
	ttrCount                   int

	// cal is the departure calendar: one bucket of VM ids per epoch
	// boundary (boundary k at k*Epoch for k < len(cal)-1, the last bucket at
	// the horizon). A VM is filed under the first boundary at or after its
	// depart whenever depart is set, so a boundary drains one small bucket
	// instead of re-sorting every live VM. Entries are never removed early:
	// killed VMs, batch VMs whose depart moved, and ids re-filed by restarts
	// leave stale entries that the drain skips. cur is the index of the
	// boundary being processed.
	cal [][]int32
	cur int

	// scratch reused every boundary: the departure batch being drained and
	// the retry entries due; per-shard batch completions every epoch
	leaving     []int32
	due         []retryEntry
	completions [][]int32
}

// RunMacro executes one macro cell to its horizon and returns the result.
func RunMacro(cfg MacroConfig) *MacroResult {
	if len(cfg.Trace.Hosts) == 0 {
		panic("fleet: macro run needs a host population")
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 60 * sim.Second
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = cfg.Trace.Horizon
	}
	if cfg.Policy == nil {
		cfg.Policy = FirstFit{}
	}
	m := &macroSim{
		cfg:     cfg,
		eng:     sim.NewEngine(cfg.Trace.Seed),
		reg:     metrics.NewRegistry(),
		horizon: sim.Time(0).Add(cfg.Horizon),
		sched:   cfg.Faults,
	}
	if cfg.Recovery.Enabled {
		m.rcv = cfg.Recovery.WithDefaults()
	}
	m.hosts = make([]macroHost, len(cfg.Trace.Hosts))
	caps := make([]int, len(cfg.Trace.Hosts))
	for i, hs := range cfg.Trace.Hosts {
		c := int(overcommit * float64(hs.Threads))
		m.hosts[i] = macroHost{
			threads:  int32(hs.Threads),
			capacity: int32(c),
			speed:    hs.SpeedFactor,
		}
		caps[i] = c
	}
	m.vms = make([]macroVM, len(cfg.Trace.VMs))
	m.ix = NewHostIndex(caps)
	m.cal = make([][]int32, (cfg.Horizon+cfg.Epoch-1)/cfg.Epoch+1)
	m.completions = make([][]int32, cfg.Shards)
	if cfg.Telemetry != nil {
		m.rec = telemetry.New(m.eng, *cfg.Telemetry)
		m.rec.AddSource("", telemetry.RegistrySource(m.reg))
		m.rec.AddSource("", macroSource{m})
		m.rec.Start()
	}
	if cfg.Observe != nil {
		cfg.Observe(m.eng)
	}
	if cfg.Obs != nil {
		m.obs = cfg.Obs
		label := cfg.ObsLabel
		if label == "" {
			label = cfg.Policy.Name()
		}
		m.obsLabel = m.obs.Label(label)
		m.faultLabel[faults.Crash] = m.obs.Label("crash")
		m.faultLabel[faults.Brownout] = m.obs.Label("brownout")
		m.faultLabel[faults.Stall] = m.obs.Label("stall")
		m.obs.Publish(progress.Event{
			Kind:  progress.KindRunStart,
			Label: m.obsLabel,
			Total: int64(len(cfg.Trace.VMs)),
		})
		m.publishMirror()
	}
	m.eng.At(0, m.epoch)
	m.eng.Run(m.horizon)
	m.boundary(m.horizon) // final departures + arrivals bookkeeping at the edge
	// Hand the residents' state back to the VM table for result and snapshot.
	for i := range m.hosts {
		live := m.hosts[i].live
		for k := range live {
			m.flushLive(&live[k])
		}
	}
	return m.result()
}

// epoch advances one integration step: boundary work (departures, arrivals,
// rescoring) then the parallel integration of [now, now+E).
func (m *macroSim) epoch() {
	now := m.eng.Now()
	m.boundary(now)
	// Refresh the recorder's self-census gauges at the boundary so they are
	// scrape- and sample-visible. Deliberately unconditional (not gated on
	// m.obs): telemetry contents must not depend on whether anyone watches.
	m.rec.UpdateCensus(m.reg)
	end := now.Add(m.cfg.Epoch)
	if end > m.horizon {
		end = m.horizon
	}
	if end > now {
		m.integrate(now, end)
		m.publishEpoch(end)
	}
	if end < m.horizon {
		m.eng.At(end, m.epoch)
	}
}

// publishEpoch emits the epoch progress event (cumulative conservation
// ledger + fleet gauges) and refreshes the metric mirror. Serial safepoint:
// runs after the sharded integration has joined.
func (m *macroSim) publishEpoch(end sim.Time) {
	m.epochIdx++
	if m.obs == nil {
		return
	}
	m.obs.Publish(progress.Event{
		Kind:      progress.KindEpoch,
		Label:     m.obsLabel,
		At:        int64(end),
		Epoch:     m.epochIdx,
		Admitted:  int64(m.next),
		Completed: int64(m.departed),
		Lost:      int64(m.lost),
		Rejected:  int64(m.rejected),
		Running:   int64(m.agg.alive),
		Pending:   int64(len(m.retryQ)),
		UtilMean:  m.agg.utilMean,
		DI:        m.agg.di,
	})
	m.publishMirror()
}

// publishMirror swaps in a fresh /metrics snapshot of the cell registry,
// the telemetry series tails and the self-census (see telemetry.MirrorFill).
func (m *macroSim) publishMirror() {
	m.obs.PublishMirror(telemetry.MirrorFill(m.reg, m.rec, &telemetry.SelfSource{Eng: m.eng}))
}

// boundary performs the serial epoch-start work at time t, in a fixed order
// so serial and sharded runs cannot diverge: departures due by t, fault
// events quantized to this epoch, a full index rescore, pending retries,
// evacuation of degraded hosts, then arrivals with At < t+E in trace order.
func (m *macroSim) boundary(t sim.Time) {
	m.now = t
	m.cur = len(m.cal) - 1
	if t < m.horizon {
		m.cur = int(t / sim.Time(m.cfg.Epoch))
	}
	// Departures: every live VM with depart <= t has its current entry in
	// this boundary's bucket (it was filed at an earlier boundary under the
	// first boundary at or after its depart), so draining the bucket departs
	// exactly the live VMs due by t, in (depart, id) order. Stale entries
	// fail the alive/depart test, and a duplicate id left by a restart is no
	// longer alive once its first copy departs.
	leaving := m.leaving[:0]
	for _, id := range m.cal[m.cur] {
		if vm := &m.vms[id]; vm.alive && vm.depart <= t {
			leaving = append(leaving, id)
		}
	}
	slices.SortFunc(leaving, func(a, b int32) int {
		if da, db := m.vms[a].depart, m.vms[b].depart; da != db {
			return cmp.Compare(da, db)
		}
		return cmp.Compare(a, b)
	})
	for _, id := range leaving {
		if m.vms[id].alive {
			m.depart(id)
		}
	}
	m.leaving = leaving
	m.cal[m.cur] = nil

	// Fault events landing in this epoch: crashes kill, brownouts degrade,
	// stalls freeze.
	m.applyFaults(t)

	// Rescore every host before any placement work: committed changed
	// above, stealEMA during the last integration, and effective capacity
	// whenever a fault window opened or expired. Every leaf changes, so
	// write them all and rebuild the tree once: n-1 pulls, not n root paths.
	for i := range m.hosts {
		committed, score := m.leafState(i)
		m.ix.setLeaf(i, committed, score)
	}
	m.ix.rebuild()

	// Pending retries due now: crash restarts and admission re-attempts,
	// oldest (readyAt, id) first.
	m.retries(t)

	// Evacuate degraded hosts through the placement policy — the macro
	// tier's migration mechanism (recovery-gated).
	m.evacuate(t)

	// Arrivals in [t, t+E), already sorted by (At, ID) in the trace.
	limit := t.Add(m.cfg.Epoch)
	for m.next < len(m.cfg.Trace.VMs) {
		tv := &m.cfg.Trace.VMs[m.next]
		if tv.At >= limit || tv.At >= m.horizon {
			break
		}
		m.place(m.next, t)
		m.next++
	}
}

// file enters VM id in the departure calendar under the first boundary at
// or after its depart, and never at or before the current boundary (whose
// departures already ran): a VM due now leaves at the next boundary. A VM
// departing past the horizon, or filed at the horizon itself, never leaves.
func (m *macroSim) file(id int32) {
	d := m.vms[id].depart
	if d > m.horizon {
		return
	}
	e := sim.Time(m.cfg.Epoch)
	k := int((d + e - 1) / e) // <= len(cal)-1, the horizon bucket, as d <= horizon
	if k <= m.cur {
		k = m.cur + 1
	}
	if k < len(m.cal) {
		m.cal[k] = append(m.cal[k], id)
	}
}

// effCap is host h's effective admission capacity at the current boundary:
// zero while crashed, degradeFactor x capacity while browned out.
func (m *macroSim) effCap(h *macroHost) int32 {
	if h.downUntil > m.now {
		return 0
	}
	if h.degradedUntil > m.now {
		return int32(h.degradeFactor * float64(h.capacity))
	}
	return h.capacity
}

// leafState is host i's index leaf. The index tracks free = capacity -
// committed against the *configured* leaf capacity, so degraded capacity is
// folded in by inflating committed with the lost headroom; a fully-down host
// scores +Inf (never NaN — NaN would poison BestScore pruning).
func (m *macroSim) leafState(i int) (committed int, score float64) {
	h := &m.hosts[i]
	eff := m.effCap(h)
	score = math.Inf(1)
	if eff > 0 {
		score = m.cfg.Policy.Score(m.macroInfo(i))
	}
	return int(h.committed) + int(h.capacity-eff), score
}

// reindexHost refreshes host i's leaf and its root path after a single-host
// change during placement or evacuation.
func (m *macroSim) reindexHost(i int) {
	committed, score := m.leafState(i)
	m.ix.Update(i, committed, score)
}

// applyFaults applies schedule events landing in epoch [t, t+E).
func (m *macroSim) applyFaults(t sim.Time) {
	if m.sched == nil {
		return
	}
	limit := t.Add(m.cfg.Epoch)
	for m.nextFault < len(m.sched.Events) {
		ev := m.sched.Events[m.nextFault]
		if ev.At >= limit || ev.At >= m.horizon {
			break
		}
		m.nextFault++
		if ev.Host < 0 || ev.Host >= len(m.hosts) {
			panic(fmt.Sprintf("fleet: fault event host %d outside fleet of %d", ev.Host, len(m.hosts)))
		}
		h := &m.hosts[ev.Host]
		until := ev.Until()
		m.events++
		if m.obs != nil {
			m.obs.Publish(progress.Event{
				Kind:   progress.KindFault,
				Label:  m.obsLabel,
				Detail: m.faultLabel[ev.Kind],
				At:     int64(ev.At),
				Host:   int64(ev.Host),
			})
		}
		switch ev.Kind {
		case faults.Crash:
			m.crashes++
			m.reg.Counter("fleet.macro.crashes").Inc()
			if until > h.downUntil {
				h.downUntil = until
			}
			for k := range h.live {
				m.flushLive(&h.live[k])
				m.kill(h.live[k].id, t)
			}
			h.dropAll()
			h.committed = 0
		case faults.Brownout:
			m.brownouts++
			m.reg.Counter("fleet.macro.brownouts").Inc()
			h.degradedUntil = until
			h.degradeFactor = ev.Factor
		case faults.Stall:
			m.stalls++
			m.reg.Counter("fleet.macro.stalls").Inc()
			h.stallUntil = until
		}
	}
}

// kill marks VM id dead after its host crashed: batch progress since the
// last (re)start is destroyed, and the VM either enters the retry queue
// (recovery) or is terminally lost.
func (m *macroSim) kill(id int32, t sim.Time) {
	vm := &m.vms[id]
	vm.alive = false
	vm.done = false
	vm.downSince = t
	m.killed++
	m.events++
	m.reg.Counter("fleet.macro.killed").Inc()
	if vm.batch {
		m.lostVCPUSeconds += (vm.origWork - vm.work) * float64(vm.vcpus)
	}
	if !m.rcv.Enabled {
		vm.state = vmLost
		m.lost++
		m.reg.Counter("fleet.macro.lost").Inc()
		return
	}
	vm.state = vmPending
	var remaining sim.Duration
	if !vm.batch {
		remaining = vm.depart.Sub(t) // > 0: departures due by t already ran
	}
	m.enqueue(retryEntry{
		id:        id,
		attempt:   1,
		readyAt:   t.Add(m.rcv.Backoff(1)),
		remaining: remaining,
	}, t)
}

// enqueue admits an entry to the bounded retry queue; overflow is
// immediately terminal (bounded restart debt is the point).
func (m *macroSim) enqueue(e retryEntry, t sim.Time) {
	if len(m.retryQ) >= m.rcv.QueueCap {
		m.terminal(e, t)
		return
	}
	m.retryQ = insertRetry(m.retryQ, e)
	m.reg.Counter("fleet.macro.retry_queued").Inc()
}

// insertRetry inserts e into q, which is sorted by (readyAt, id), at its
// sorted position. A VM has at most one queue entry, so (readyAt, id) is a
// total order and the queue equals a stable sort of the same entries in any
// arrival order.
func insertRetry(q []retryEntry, e retryEntry) []retryEntry {
	i, _ := slices.BinarySearchFunc(q, e, func(a, b retryEntry) int {
		if a.readyAt != b.readyAt {
			return cmp.Compare(a.readyAt, b.readyAt)
		}
		return cmp.Compare(a.id, b.id)
	})
	return slices.Insert(q, i, e)
}

// terminal finalizes a retry entry that ran out of road: crash victims are
// lost, admission victims are rejected. Both land in the snapshot.
func (m *macroSim) terminal(e retryEntry, t sim.Time) {
	vm := &m.vms[e.id]
	if e.admit {
		vm.state = vmRejected
		m.rejected++
		m.reg.Counter("fleet.macro.rejected").Inc()
		return
	}
	vm.state = vmLost
	m.lost++
	m.downVCPUSeconds += t.Sub(vm.downSince).Seconds() * float64(vm.vcpus)
	m.reg.Counter("fleet.macro.lost").Inc()
}

// retries runs every queue entry due at t in (readyAt, id) order: the queue
// is kept sorted, so the due entries are its prefix.
func (m *macroSim) retries(t sim.Time) {
	cut := 0
	for cut < len(m.retryQ) && m.retryQ[cut].readyAt <= t {
		cut++
	}
	if cut == 0 {
		return
	}
	m.due = append(m.due[:0], m.retryQ[:cut]...)
	m.retryQ = append(m.retryQ[:0], m.retryQ[cut:]...)
	for _, e := range m.due {
		vm := &m.vms[e.id]
		vcpus := int(vm.vcpus)
		if e.admit {
			vcpus = m.cfg.Trace.VMs[e.id].VCPUs
		}
		hi := m.choose(vcpus)
		m.events++
		if hi < 0 {
			if int(e.attempt) >= m.rcv.MaxRetries {
				m.terminal(e, t)
			} else {
				e.attempt++
				e.readyAt = t.Add(m.rcv.Backoff(int(e.attempt)))
				m.enqueue(e, t)
			}
			continue
		}
		if e.admit {
			m.admit(int(e.id), hi, t)
		} else {
			m.restart(e, hi, t)
		}
	}
}

// restart re-places a crash victim on host hi: service VMs resume their
// remaining wall-clock lifetime, batch VMs restart their full budget.
func (m *macroSim) restart(e retryEntry, hi int, t sim.Time) {
	vm := &m.vms[e.id]
	h := &m.hosts[hi]
	h.committed += int32(vm.vcpus)
	vm.host = int32(hi)
	vm.alive = true
	vm.state = vmRunning
	vm.restarts++
	if vm.batch {
		vm.work = vm.origWork
		vm.done = false
		vm.depart = m.horizon
	} else {
		vm.depart = t.Add(e.remaining)
	}
	h.push(m.liveRecord(e.id))
	m.file(e.id)
	m.restarts++
	m.events++
	m.reg.Counter("fleet.macro.restarts").Inc()
	ttr := t.Sub(vm.downSince).Seconds()
	m.ttrSum += ttr
	m.ttrCount++
	if ttr > m.ttrMax {
		m.ttrMax = ttr
	}
	m.downVCPUSeconds += ttr * float64(vm.vcpus)
	m.reindexHost(hi)
	if m.obs != nil {
		m.obs.Publish(progress.Event{
			Kind:    progress.KindRecovery,
			Label:   m.obsLabel,
			At:      int64(t),
			Host:    int64(hi),
			Retries: int64(e.attempt),
		})
	}
}

// evacuate drains hosts whose commitment exceeds their degraded capacity,
// newest VM first (coldest state), re-placing through the policy. Each
// attempt consults the migration-failure law; a failed attempt abandons the
// host until the next boundary. A VM with nowhere to go stays — graceful
// degradation: the overcommit persists and shows up as steal.
func (m *macroSim) evacuate(t sim.Time) {
	if !m.rcv.Enabled || m.sched == nil {
		return
	}
	for i := range m.hosts {
		h := &m.hosts[i]
		for h.committed > m.effCap(h) && len(h.live) > 0 {
			l := h.live[len(h.live)-1]
			vm := &m.vms[l.id]
			m.migAttempts++
			m.events++
			if m.sched.MigrationFails(m.migAttempts) {
				m.evacFailures++
				m.reg.Counter("fleet.macro.evac_failures").Inc()
				break
			}
			hi := m.choose(int(vm.vcpus))
			if hi < 0 || hi == i {
				break // nowhere to go: stay overcommitted, steal rises
			}
			h.removeAt(len(h.live) - 1)
			h.committed -= int32(vm.vcpus)
			d := &m.hosts[hi]
			d.committed += int32(vm.vcpus)
			d.push(l)
			vm.host = int32(hi)
			m.evacuations++
			m.reg.Counter("fleet.macro.evacuations").Inc()
			m.reindexHost(i)
			m.reindexHost(hi)
		}
	}
}

// macroInfo builds the policy snapshot row for host i that Score rates.
// Capacity is the effective (fault-adjusted) bound.
func (m *macroSim) macroInfo(i int) HostInfo {
	h := &m.hosts[i]
	return HostInfo{
		Index:     i,
		Committed: int(h.committed),
		Capacity:  int(m.effCap(h)),
		VMs:       len(h.live),
		StealRate: h.stealEMA,
	}
}

// choose picks a host for a vcpus-wide VM through the index; -1 means
// nothing fits.
func (m *macroSim) choose(vcpus int) int {
	return m.cfg.Policy.PlaceIndexed(m.ix, vcpus)
}

// place admits trace VM idx at epoch time t. A rejection is terminal only
// without recovery; with recovery the VM queues for re-admission with the
// same backoff law crash victims use, so demand is conserved, not dropped.
func (m *macroSim) place(idx int, t sim.Time) {
	tv := &m.cfg.Trace.VMs[idx]
	hi := m.choose(tv.VCPUs)
	m.events++
	if hi < 0 {
		vm := &m.vms[idx]
		if m.rcv.Enabled {
			vm.state = vmPending
			m.enqueue(retryEntry{
				id:      int32(idx),
				admit:   true,
				attempt: 1,
				readyAt: t.Add(m.rcv.Backoff(1)),
			}, t)
			return
		}
		vm.state = vmRejected
		m.rejected++
		m.reg.Counter("fleet.macro.rejected").Inc()
		return
	}
	m.admit(idx, hi, t)
}

// admit commits trace VM idx to host hi at time t.
func (m *macroSim) admit(idx int, hi int, t sim.Time) {
	tv := &m.cfg.Trace.VMs[idx]
	h := &m.hosts[hi]
	h.committed += int32(tv.VCPUs)
	vm := &m.vms[idx]
	*vm = macroVM{
		at:     t,
		demand: tv.Demand,
		host:   int32(hi),
		vcpus:  int16(tv.VCPUs),
		batch:  tv.Class == cloudgen.Batch,
		alive:  true,
		state:  vmRunning,
	}
	if vm.batch {
		vm.work = tv.Work.Seconds()
		vm.origWork = vm.work
		vm.depart = m.horizon // until the budget drains
	} else {
		vm.depart = t.Add(tv.Lifetime)
	}
	h.push(m.liveRecord(int32(idx)))
	m.file(int32(idx))
	m.placed++
	m.reg.Counter("fleet.macro.placed").Inc()
	m.reindexHost(hi)
}

// depart releases VM id's commitment and removes it from its host, flushing
// its live record.
func (m *macroSim) depart(id int32) {
	vm := &m.vms[id]
	vm.alive = false
	vm.state = vmCompleted
	h := &m.hosts[vm.host]
	h.committed -= int32(vm.vcpus)
	for k := range h.live {
		if h.live[k].id == id {
			m.flushLive(&h.live[k])
			h.removeAt(k)
			break
		}
	}
	m.departed++
	m.events++
	m.reg.Counter("fleet.macro.departed").Inc()
}

// integrate advances every host through [t0, t1). The per-host work is
// independent — each VM belongs to one host — so it shards across contiguous
// host ranges. All cross-host reductions happen serially afterwards, in host
// order, so shard count cannot perturb a single float operation.
func (m *macroSim) integrate(t0, t1 sim.Time) {
	shards := m.cfg.Shards
	if shards > len(m.hosts) {
		shards = len(m.hosts)
	}
	per := (len(m.hosts) + shards - 1) / shards
	if shards == 1 {
		m.completions[0] = m.integrateRange(0, len(m.hosts), t0, t1, m.completions[0][:0])
	} else {
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			lo := s * per
			hi := lo + per
			if hi > len(m.hosts) {
				hi = len(m.hosts)
			}
			if lo >= hi {
				m.completions[s] = m.completions[s][:0]
				continue
			}
			wg.Add(1)
			go func(s, lo, hi int) {
				defer wg.Done()
				m.completions[s] = m.integrateRange(lo, hi, t0, t1, m.completions[s][:0])
			}(s, lo, hi)
		}
		wg.Wait()
	}

	// Serial merge, shard order == host order: batch completions are filed
	// in the calendar with their boundary departure time.
	for s := 0; s < shards; s++ {
		for _, id := range m.completions[s] {
			vm := &m.vms[id]
			// depart holds the analytic completion instant; the makespan is
			// the latest one seen. The actual departure quantizes to the
			// epoch boundary.
			if vm.depart > m.makespan {
				m.makespan = vm.depart
			}
			vm.depart = t1
			m.file(id)
		}
	}

	// Degree of imbalance over hosts with any capacity, serial in host order,
	// plus one event per host and per resident VM integrated.
	minU, maxU, sumU := math.Inf(1), math.Inf(-1), 0.0
	sumSteal, sumCommitted, alive := 0.0, 0.0, 0.0
	down, degraded, stalled := 0.0, 0.0, 0.0
	var events uint64
	for i := range m.hosts {
		h := &m.hosts[i]
		events += uint64(len(h.live)) + 1
		u := h.util
		if u < minU {
			minU = u
		}
		if u > maxU {
			maxU = u
		}
		sumU += u
		sumSteal += h.stealEMA
		sumCommitted += float64(h.committed)
		alive += float64(len(h.live))
		if h.downUntil > t0 {
			down++
		} else if h.degradedUntil > t0 {
			degraded++
		}
		if h.stallUntil > t0 {
			stalled++
		}
	}
	m.events += events
	// Availability ledger: committed vCPU-seconds delivered-or-placed this
	// epoch. The down side accrues per crash victim at restart/loss time.
	m.upVCPUSeconds += sumCommitted * t1.Sub(t0).Seconds()
	n := float64(len(m.hosts))
	di := 0.0
	if sumU > 0 {
		di = (maxU - minU) / (sumU / n)
		m.diSum += di
		m.diEpochs++
		if di > m.diMax {
			m.diMax = di
		}
	}
	m.agg = macroAgg{
		alive:         alive,
		committed:     sumCommitted,
		utilMean:      sumU / n,
		utilMax:       maxU,
		di:            di,
		stealEMAMean:  sumSteal / n,
		hostsDown:     down,
		hostsDegraded: degraded,
		hostsStalled:  stalled,
		pendingRetry:  float64(len(m.retryQ)),
		restarts:      float64(m.restarts),
		lost:          float64(m.lost),
		evacuations:   float64(m.evacuations),
		killed:        float64(m.killed),
	}
	m.reg.Counter("fleet.macro.epochs").Inc()
}

// integrateRange advances hosts [lo, hi) through [t0, t1), appending batch
// VMs whose budget drained to done. Touches only state owned by those hosts:
// their live records, and the depart of a VM completing on one of them.
func (m *macroSim) integrateRange(lo, hi int, t0, t1 sim.Time, done []int32) []int32 {
	dt := t1.Sub(t0).Seconds()
	const alpha = 0.4 // same smoothing the micro fleet's steal EMA uses
	for i := lo; i < hi; i++ {
		h := &m.hosts[i]
		// Effective compute for this epoch: zero while crashed or stalled
		// (stall = all demand steals, nothing progresses), degradeFactor x
		// threads while browned out. Fault windows are set serially at
		// boundaries, so reading them here is shard-safe.
		effT := float64(h.threads)
		if h.downUntil > t0 || h.stallUntil > t0 {
			effT = 0
		} else if h.degradedUntil > t0 {
			effT = h.degradeFactor * float64(h.threads)
		}
		demand := h.demandSum()
		rho := 1.0
		util := 0.0
		if effT <= 0 {
			rho = 0
			if demand > 0 {
				util = 1
			}
		} else {
			if demand > effT {
				rho = effT / demand
			}
			util = demand / effT
			if util > 1 {
				util = 1
			}
		}
		h.util = util
		target := 0.0
		if demand > 0 {
			target = 1 - rho
		}
		h.stealEMA = alpha*target + (1-alpha)*h.stealEMA
		for k := range h.live {
			l := &h.live[k]
			span := dt
			if l.batch && !l.done {
				rate := rho * h.speed // per-vCPU progress per second
				if need := l.work / rate; need < span {
					span = need
					l.work = 0
					l.done = true
					// Analytic completion instant; integrate() lifts it
					// into the makespan then quantizes the departure.
					m.vms[l.id].depart = t0.Add(sim.Duration(span * float64(sim.Second)))
					done = append(done, l.id)
				} else {
					l.work -= rate * span
				}
			} else if l.done {
				span = 0 // budget drained in a prior epoch; idle until boundary
			}
			req := l.w * span
			l.served += req * rho
			l.steal += req * (1 - rho)
		}
	}
	return done
}

// result finalizes counters, percentiles and the canonical snapshot, and
// enforces the conservation law: every arrival is in exactly one terminal or
// live state — nothing is lost unaccounted.
func (m *macroSim) result() *MacroResult {
	fracs := make([]float64, 0, m.placed)
	totalSteal := 0.0
	for i := range m.vms {
		vm := &m.vms[i]
		if vm.vcpus == 0 {
			continue // never placed
		}
		totalSteal += vm.steal
		if tot := vm.steal + vm.served; tot > 0 {
			fracs = append(fracs, vm.steal/tot)
		}
	}
	sort.Float64s(fracs)
	p95 := 0.0
	if len(fracs) > 0 {
		idx := (len(fracs) * 95) / 100
		if idx >= len(fracs) {
			idx = len(fracs) - 1
		}
		p95 = fracs[idx]
	}
	diMean := 0.0
	if m.diEpochs > 0 {
		diMean = m.diSum / float64(m.diEpochs)
	}

	// Conservation: arrived == running + pending + completed + lost +
	// rejected, with the per-state tallies matching the incremental
	// counters. Crash victims still pending at the horizon accrue their
	// outage tail here.
	var running, pending, completed, lost, rejected int
	for i := 0; i < m.next; i++ {
		vm := &m.vms[i]
		switch vm.state {
		case vmRunning:
			running++
		case vmPending:
			pending++
			if vm.vcpus > 0 { // crash victim (admission retries never ran)
				m.downVCPUSeconds += m.horizon.Sub(vm.downSince).Seconds() * float64(vm.vcpus)
			}
		case vmCompleted:
			completed++
		case vmLost:
			lost++
		case vmRejected:
			rejected++
		default:
			panic(fmt.Sprintf("fleet: macro VM %d arrived but has no state", i))
		}
	}
	if running+pending+completed+lost+rejected != m.next ||
		completed != m.departed || lost != m.lost || rejected != m.rejected {
		panic(fmt.Sprintf(
			"fleet: macro VM conservation violated: arrived=%d running=%d pending=%d completed=%d (departed=%d) lost=%d (%d) rejected=%d (%d)",
			m.next, running, pending, completed, m.departed, lost, m.lost, rejected, m.rejected))
	}

	if m.obs != nil {
		// Final ledger, after the horizon boundary's departures: the stream's
		// terminal record, which consumers reconcile against the per-epoch
		// events and the conservation law.
		m.obs.Publish(progress.Event{
			Kind:      progress.KindRunDone,
			Label:     m.obsLabel,
			At:        int64(m.horizon),
			Epoch:     m.epochIdx,
			Admitted:  int64(m.next),
			Completed: int64(completed),
			Lost:      int64(lost),
			Rejected:  int64(rejected),
			Running:   int64(running),
			Pending:   int64(pending),
		})
		m.publishMirror()
	}

	availability := 1.0
	if m.upVCPUSeconds+m.downVCPUSeconds > 0 {
		availability = m.upVCPUSeconds / (m.upVCPUSeconds + m.downVCPUSeconds)
	}
	mttrMean := 0.0
	if m.ttrCount > 0 {
		mttrMean = m.ttrSum / float64(m.ttrCount)
	}
	return &MacroResult{
		Policy:          m.cfg.Policy.Name(),
		Hosts:           len(m.hosts),
		Arrivals:        len(m.cfg.Trace.VMs),
		Placed:          m.placed,
		Rejected:        m.rejected,
		Lifetimes:       m.departed,
		Events:          m.events,
		DIMean:          diMean,
		DIMax:           m.diMax,
		Makespan:        m.makespan,
		P95Steal:        p95,
		TotalStealHours: totalSteal / 3600,
		Crashes:         m.crashes,
		Brownouts:       m.brownouts,
		Stalls:          m.stalls,
		Killed:          m.killed,
		Restarts:        m.restarts,
		Lost:            m.lost,
		Evacuations:     m.evacuations,
		EvacFailures:    m.evacFailures,
		PendingAtEnd:    pending,
		RunningAtEnd:    running,
		Availability:    availability,
		MTTRMean:        mttrMean,
		MTTRMax:         m.ttrMax,
		LostVCPUHours:   m.lostVCPUSeconds / 3600,
		DownVCPUHours:   m.downVCPUSeconds / 3600,
		Snapshot:        m.snapshot(),
		Registry:        m.reg,
		Telemetry:       m.rec,
	}
}

// snapshot encodes final state canonically: every host's commitment, steal
// EMA and utilization, every VM's steal/served/work bits, and the scalar
// outcome counters. Two runs that diverge anywhere — one float op, one
// placement, one departure order — produce different bytes.
func (m *macroSim) snapshot() []byte {
	buf := make([]byte, 0, 8*(3*len(m.hosts)+4*len(m.vms)+8))
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for i := range m.hosts {
		h := &m.hosts[i]
		u64(uint64(uint32(h.committed)))
		f64(h.stealEMA)
		f64(h.util)
		u64(uint64(h.downUntil))
		u64(uint64(h.degradedUntil))
		u64(uint64(h.stallUntil))
		f64(h.degradeFactor)
	}
	for i := range m.vms {
		vm := &m.vms[i]
		f64(vm.steal)
		f64(vm.served)
		f64(vm.work)
		flags := uint64(vm.host) << 8
		if vm.alive {
			flags |= 1
		}
		if vm.done {
			flags |= 2
		}
		u64(flags)
		u64(uint64(vm.state) | uint64(uint32(vm.restarts))<<8)
	}
	u64(uint64(m.placed))
	u64(uint64(m.rejected))
	u64(uint64(m.departed))
	u64(uint64(m.makespan))
	f64(m.diSum)
	f64(m.diMax)
	u64(uint64(m.diEpochs))
	u64(m.events)
	// Fault plane: terminal rejections above plus the full recovery ledger,
	// so a single diverging kill, restart or evacuation flips the digest.
	u64(uint64(m.crashes))
	u64(uint64(m.brownouts))
	u64(uint64(m.stalls))
	u64(uint64(m.killed))
	u64(uint64(m.restarts))
	u64(uint64(m.lost))
	u64(uint64(m.evacuations))
	u64(uint64(m.evacFailures))
	u64(m.migAttempts)
	u64(uint64(len(m.retryQ)))
	f64(m.upVCPUSeconds)
	f64(m.downVCPUSeconds)
	f64(m.lostVCPUSeconds)
	f64(m.ttrSum)
	f64(m.ttrMax)
	u64(uint64(m.ttrCount))
	return buf
}

// SnapshotDigest returns a short FNV-64a hex digest of a snapshot, for logs
// and reports.
func SnapshotDigest(snap []byte) string {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range snap {
		h ^= uint64(b)
		h *= prime
	}
	return fmt.Sprintf("%016x", h)
}

// macroSource samples the fleet-wide aggregates after each epoch.
type macroSource struct{ m *macroSim }

// Collect implements telemetry.Source. Aggregate-only by design: at 1024
// hosts, per-host series would defeat the recorder's memory bound.
func (s macroSource) Collect(now sim.Time, emit func(string, float64)) {
	a := &s.m.agg
	emit("fleet.macro.vms_alive", a.alive)
	emit("fleet.macro.committed", a.committed)
	emit("fleet.macro.util_mean", a.utilMean)
	emit("fleet.macro.util_max", a.utilMax)
	emit("fleet.macro.di", a.di)
	emit("fleet.macro.steal_ema_mean", a.stealEMAMean)
	emit("fleet.macro.hosts_down", a.hostsDown)
	emit("fleet.macro.hosts_degraded", a.hostsDegraded)
	emit("fleet.macro.hosts_stalled", a.hostsStalled)
	emit("fleet.macro.pending_retry", a.pendingRetry)
	emit("fleet.macro.restarts_total", a.restarts)
	emit("fleet.macro.lost_total", a.lost)
	emit("fleet.macro.evacuations_total", a.evacuations)
	emit("fleet.macro.killed_total", a.killed)
}
