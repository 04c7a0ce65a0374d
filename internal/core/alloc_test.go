package core

import (
	"runtime"
	"testing"

	"vsched/internal/cachemodel"
	"vsched/internal/guest"
	"vsched/internal/host"
	"vsched/internal/sim"
)

// vschedAllocBudget is the pinned allocation budget, in mallocs per fired
// engine event, of a warmed VM running vcap/vact, vtop, bvs and ivh under
// sleeping, semaphore, barrier and broadcast tasks on a contended host. It
// extends guest.TestHotPathAllocBudget (compute-only, zero mallocs) to the
// blocking paths and to vSched's probers. Every per-event callback is bound
// once: vtop's session.pollFn, Task.sleepFn/wakeFn, VCPU.preemptFn; wait
// queues pop in place (popFront), barriers, broadcasts and pending IRQs
// swap two arrays, and medianCapacity reuses VSched.capScratch. What
// remains is per prober session, per ivh attempt and per vcap window, not
// per event: each vtop session allocates the session struct, its setup
// closure, two prober tasks through Spawn (task, behavior closure,
// options, the Sprintf'd name) and its done chain, plus the validation's
// check plan; each ivh attempt allocates its IRQ, stopper and timeout
// closures; vcap binds its window method values. This scenario measured
// 1263 mallocs over 381605 events (0.00331/event); the budget rounds that
// up. Reverting any one of the bindings above multiplies the count at
// least sixfold. If this fails, a hot schedule or wait queue went back
// to allocating — fix that, don't raise the budget.
const vschedAllocBudget = 0.0034

func TestVSchedAllocBudget(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := host.DefaultConfig()
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	cfg.ThreadsPerCore = 2
	h := host.New(eng, cfg)
	// vCPUs 4 and 5 stack on one hardware thread: every vtop validation
	// then confirms that pair with an extended, poll-heavy session.
	threads := []*host.Thread{h.Thread(0), h.Thread(1), h.Thread(2), h.Thread(3), h.Thread(4), h.Thread(4)}
	vm := guest.NewVM(h, "vm", threads, guest.DefaultParams())
	vm.Start()
	s := New(vm, Features{Vcap: true, Vact: true, Vtop: true, BVS: true, IVH: true}, DefaultParams(), cachemodel.Default())
	s.Start()
	// Contention: a CFS stressor and two bursty contenders keep some vCPUs
	// inactive, so IRQs pend, vtop sessions poll for longer and ivh acts.
	host.NewStressor(h, "hog", h.Thread(1), host.DefaultWeight)
	host.NewPatternContender(h, "burst2", h.Thread(2), 3*sim.Millisecond, 7*sim.Millisecond, 0)
	host.NewPatternContender(h, "burst4", h.Thread(4), 2*sim.Millisecond, 5*sim.Millisecond, sim.Millisecond)

	// loop returns a behavior cycling through segs. The segments are built
	// once, so behaviors allocate nothing per call.
	loop := func(segs ...guest.Segment) guest.Behavior {
		i := 0
		return func(sim.Time) guest.Segment {
			seg := segs[i]
			i = (i + 1) % len(segs)
			return seg
		}
	}
	user := guest.WithGroup(s.UserGroup())
	for i := 0; i < 4; i++ {
		vm.Spawn("sleeper", loop(guest.Compute(50_000), guest.Sleep(300*sim.Microsecond)),
			user, guest.WithLatencySensitive())
	}
	sem := guest.NewSemaphore(0)
	vm.Spawn("producer", loop(guest.Sleep(200*sim.Microsecond), guest.SemPost(sem)), user)
	for i := 0; i < 3; i++ {
		vm.Spawn("consumer", loop(guest.SemWait(sem), guest.Compute(80_000)), user)
	}
	bar := guest.NewBarrier(3)
	for i := 0; i < 3; i++ {
		vm.Spawn("worker", loop(guest.Compute(200_000), guest.BarrierWait(bar)), user)
	}
	cond := &guest.Cond{}
	vm.Spawn("broadcaster", loop(guest.Sleep(500*sim.Microsecond), guest.Broadcast(cond)), user)
	for i := 0; i < 2; i++ {
		vm.Spawn("waiter", loop(guest.Wait(cond), guest.Compute(30_000)), user)
	}
	vm.Spawn("cruncher", loop(guest.ComputeForever()), user)

	// Warm up past vtop's bootstrap probe and several vcap windows, so
	// queues, runqueues and engine storage reach steady-state capacity.
	eng.RunFor(20 * sim.Second)

	var before, after runtime.MemStats
	fired := eng.Fired()
	runtime.ReadMemStats(&before)
	eng.RunFor(4 * sim.Second) // two vtop validations, four vcap windows
	runtime.ReadMemStats(&after)
	events := eng.Fired() - fired
	if events < 100_000 {
		t.Fatalf("only %d events fired; the scenario is not exercising the hot path", events)
	}
	mallocs := after.Mallocs - before.Mallocs
	perEvent := float64(mallocs) / float64(events)
	t.Logf("%d mallocs over %d events (%.5f/event)", mallocs, events, perEvent)
	if perEvent > vschedAllocBudget {
		t.Fatalf("%d mallocs over %d events (%.5f/event), budget %.4f", mallocs, events, perEvent, vschedAllocBudget)
	}
	if calls, _ := s.BVSStats(); calls == 0 {
		t.Fatal("bvs never ran")
	}
	if s.Vtop().FullProbes() == 0 {
		t.Fatal("vtop never probed")
	}
}
