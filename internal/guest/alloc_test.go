package guest

import (
	"runtime"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
)

// hotPathAllocBudget is the pinned allocation budget, in mallocs per fired
// engine event, of a warmed VM running compute-only tasks on a contended
// host: vCPU completion events, guest ticks with periodic balancing, host
// CFS slices against a stressor, SMT and turbo speed changes, and a pattern
// contender's bursts. Every event callback on that path is a method value
// bound once at construction (VCPU.completeFn/tickFn/resumeFn,
// Thread.sliceFn, PatternContender.burstFn/endBurstFn), so the target is
// zero. If this fails, a hot schedule went back to passing a fresh method
// value or closure to eng.After — fix that, don't raise the budget. The
// blocking paths (sleeps, wait queues, barriers, broadcasts, pending IRQs,
// wakeup preemption) and vSched's probers are gated by
// core.TestVSchedAllocBudget, which drives them under vcap, vtop, bvs and
// ivh.
const hotPathAllocBudget = 0

func TestHotPathAllocBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := host.DefaultConfig()
	cfg.Sockets = 1
	cfg.CoresPerSocket = 3
	cfg.ThreadsPerCore = 2 // SMT speed changes; turbo stays on (default)
	h := host.New(eng, cfg)
	// Four vCPUs on the first two cores (two SMT pairs), so the busy-core
	// count crosses 1<->2 as vCPUs halt and resume.
	threads := []*host.Thread{h.Thread(0), h.Thread(1), h.Thread(2), h.Thread(3)}
	vm := NewVM(h, "vm", threads, DefaultParams())
	b := DefaultBelief(len(threads))
	for i := range b.CoreOf {
		b.CoreOf[i] = i / 2 // accurate SMT belief: smtBalancePass walks core groups
	}
	vm.SetTopology(b)
	vm.Start()
	// Host slices: a CFS stressor shares vCPU 1's thread.
	host.NewStressor(h, "hog", h.Thread(1), host.DefaultWeight)
	// Bursts: a pattern contender periodically preempts vCPU 2.
	host.NewPatternContender(h, "burst", h.Thread(2), 3*sim.Millisecond, 7*sim.Millisecond, 0)
	// A thread on the third core toggles busy on its own, flipping turbo.
	host.NewPatternContender(h, "turbo", h.Thread(4), 2*sim.Millisecond, 5*sim.Millisecond, sim.Millisecond)

	// Compute-only tasks, more than vCPUs so ticks preempt and queues stay
	// non-empty; the segment is fixed, so the behavior itself allocates
	// nothing.
	seg := Compute(400_000)
	for i := 0; i < 6; i++ {
		vm.Spawn("worker", func(sim.Time) Segment { return seg })
	}

	// Warm up: grow runqueue, event-pool and wheel-slot storage to steady
	// state. The engine's slot slices grow on first use and on new occupancy
	// highs. On this scenario, consecutive 2 s windows after the first
	// second saw 296, 76, 22, 15, 9, 4, 1, 0, 0, 0 mallocs, all in the
	// engine's slot storage, so the warm-up runs well past 15 s.
	eng.RunFor(20 * sim.Second)

	var before, after runtime.MemStats
	fired := eng.Fired()
	runtime.ReadMemStats(&before)
	eng.RunFor(2 * sim.Second)
	runtime.ReadMemStats(&after)
	events := eng.Fired() - fired
	if events < 10_000 {
		t.Fatalf("only %d events fired; the scenario is not exercising the hot path", events)
	}
	mallocs := after.Mallocs - before.Mallocs
	if perEvent := float64(mallocs) / float64(events); perEvent > hotPathAllocBudget {
		t.Fatalf("%d mallocs over %d events (%.4f/event), budget %d", mallocs, events, perEvent, hotPathAllocBudget)
	}
}
