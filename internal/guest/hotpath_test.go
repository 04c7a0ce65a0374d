package guest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

// Oracles for the allocation-free and socket-local rewrites of the hot
// path: each rewritten routine must agree exactly with the plain version it
// replaced.

// refCoreGroupIdle is the full-scan coreGroupIdle: every vCPU whose believed
// core equals i's must be guest-idle.
func refCoreGroupIdle(vm *VM, i int) bool {
	g := vm.topo.CoreOf[i]
	for j, v := range vm.vcpus {
		if vm.topo.CoreOf[j] == g && !v.GuestIdle() {
			return false
		}
	}
	return true
}

// refScanIdle is the full-scan scanIdle: walk all n vCPUs from start with
// wrap-around, skipping those outside start's believed socket.
func refScanIdle(vm *VM, t *Task, util float64, start int, wantIdleCore bool) *VCPU {
	n := len(vm.vcpus)
	for k := 0; k < n; k++ {
		v := vm.vcpus[(start+k)%n]
		if vm.topo.SocketOf[v.id] != vm.topo.SocketOf[start] || !vm.allowedFor(t, v) || !v.GuestIdle() {
			continue
		}
		if !fitsCapacity(util, v.Capacity()) {
			continue
		}
		if wantIdleCore && !refCoreGroupIdle(vm, v.id) {
			continue
		}
		return v
	}
	return nil
}

// refSelectCPUDefault is selectCPUDefault's fallback chain written with
// full scans.
func refSelectCPUDefault(vm *VM, t *Task, prev, waker *VCPU) *VCPU {
	util := t.Util()
	target := prev
	if target == nil || !vm.allowedFor(t, target) {
		target = vm.firstAllowed(t)
	}
	if waker != nil && vm.allowedFor(t, waker) && util <= 800 &&
		!vm.topo.SameSocket(target.id, waker.id) &&
		vm.socketLoad(waker.id) <= vm.socketLoad(target.id)*5/4+256 {
		target = waker
	}
	if vm.allowedFor(t, target) && target.GuestIdle() &&
		refCoreGroupIdle(vm, target.id) && fitsCapacity(util, target.Capacity()) {
		return target
	}
	inDomain := func(v *VCPU) bool { return vm.topo.SocketOf[v.id] == vm.topo.SocketOf[target.id] }
	if pick := refScanIdle(vm, t, util, target.id, true); pick != nil {
		return pick
	}
	if pick := refScanIdle(vm, t, util, target.id, false); pick != nil {
		return pick
	}
	for _, v := range vm.vcpus {
		if inDomain(v) && vm.allowedFor(t, v) && v.GuestIdle() {
			return v
		}
	}
	if pick := vm.leastLoaded(t, inDomain); pick != nil {
		return pick
	}
	if pick := vm.leastLoaded(t, func(*VCPU) bool { return true }); pick != nil {
		return pick
	}
	return vm.firstAllowed(t)
}

// randomBelief draws arbitrary group labels (not necessarily contiguous or
// nested) for n vCPUs.
func randomBelief(rng *rand.Rand, n int) Belief {
	b := DefaultBelief(n)
	cores, sockets := 1+rng.Intn(n), 1+rng.Intn(3)
	for i := 0; i < n; i++ {
		b.CoreOf[i] = 10 * rng.Intn(cores)
		b.SocketOf[i] = 7 - rng.Intn(sockets)
	}
	return b
}

func TestSocketLocalScanMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	id := func(v *VCPU) int {
		if v == nil {
			return -1
		}
		return v.id
	}
	for trial := 0; trial < 60; trial++ {
		eng := sim.NewEngine(1)
		cfg := host.DefaultConfig()
		cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 2, 4, 2
		h := host.New(eng, cfg)
		n := 1 + rng.Intn(12)
		var threads []*host.Thread
		for i := 0; i < n; i++ {
			threads = append(threads, h.Thread(rng.Intn(16)))
		}
		vm := NewVM(h, "vm", threads, DefaultParams())
		busy := &Task{vm: vm, weight: WeightNormal, affinity: -1}
		for round := 0; round < 8; round++ {
			if round > 0 { // round 0 keeps NewVM's default belief
				vm.SetTopology(randomBelief(rng, n))
			}
			for _, v := range vm.vcpus {
				v.curr, v.rq = nil, nil
				switch rng.Intn(4) {
				case 0:
					v.curr = busy
				case 1:
					v.rq = []*Task{busy}
				}
				v.PublishCapacity(rng.Int63n(1400)) // 0 keeps the vanilla estimate
			}
			for q := 0; q < 10; q++ {
				g := vm.root
				if rng.Intn(2) == 0 {
					g = vm.NewGroup("g")
					for i := range g.allowed {
						g.allowed[i] = rng.Intn(3) > 0
					}
				}
				tk := &Task{vm: vm, group: g, affinity: -1, util: rng.Float64() * 1100}
				if rng.Intn(5) == 0 {
					tk.affinity = rng.Intn(n)
				}
				for i := 0; i < n; i++ {
					if got, want := vm.coreGroupIdle(i), refCoreGroupIdle(vm, i); got != want {
						t.Fatalf("trial %d round %d: coreGroupIdle(%d)=%v, full scan %v", trial, round, i, got, want)
					}
					for _, core := range []bool{true, false} {
						got := vm.scanIdle(tk, tk.util, i, core)
						want := refScanIdle(vm, tk, tk.util, i, core)
						if got != want {
							t.Fatalf("trial %d round %d: scanIdle(start=%d, core=%v)=v%d, full scan v%d",
								trial, round, i, core, id(got), id(want))
						}
					}
					prev, waker := vm.vcpus[i], vm.vcpus[rng.Intn(n)]
					if rng.Intn(3) == 0 {
						waker = nil
					}
					if got, want := vm.selectCPUDefault(tk, prev, waker), refSelectCPUDefault(vm, tk, prev, waker); got != want {
						t.Fatalf("trial %d round %d: selectCPUDefault(prev=%d)=v%d, full scan v%d",
							trial, round, i, id(got), id(want))
					}
				}
			}
		}
	}
}

func TestDecayCacheExact(t *testing.T) {
	c := newDecayCache()
	check := func(k sim.Duration) {
		t.Helper()
		want := math.Exp2(-float64(k) / float64(peltTau))
		if got := c.factor(k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("factor(%d)=%v (%#x), Exp2 %v (%#x)", k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(9))
	// Zero (the empty slots' key), then random keys across scales.
	check(0)
	for i := 0; i < 20000; i++ {
		check(sim.Duration(rng.Int63n(int64(10*sim.Second) >> uint(rng.Intn(30)))))
	}
	// Repeated keys: a small working set, so most lookups hit.
	hot := []sim.Duration{sim.Millisecond, 2 * sim.Millisecond, 999_999, 1_000_001, 3 * sim.Millisecond, 250 * sim.Microsecond}
	for i := 0; i < 5000; i++ {
		check(hot[rng.Intn(len(hot))])
	}
	// Keys sharing one slot evict each other; each must still be exact.
	slot := func(k sim.Duration) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 >> (64 - decayBits) }
	same := []sim.Duration{sim.Millisecond}
	for k := sim.Millisecond + 1; len(same) < 5; k++ {
		if slot(k) == slot(same[0]) {
			same = append(same, k)
		}
	}
	for i := 0; i < 1000; i++ {
		check(same[i%len(same)])
		check(same[rng.Intn(len(same))])
	}
}

func TestPopFrontFIFO(t *testing.T) {
	tasks := make([]*Task, 64)
	for i := range tasks {
		tasks[i] = &Task{id: i}
	}
	rng := rand.New(rand.NewSource(3))
	var q, model []*Task
	next := 0
	for round := 0; round < 20000; round++ {
		if len(q) == 0 || (len(q) < 40 && rng.Intn(2) == 0) {
			tk := tasks[next%len(tasks)]
			next++
			q = append(q, tk)
			model = append(model, tk)
			continue
		}
		got, want := popFront(&q), model[0]
		model = model[1:]
		if got != want || len(q) != len(model) {
			t.Fatalf("round %d: popped task %d (len %d), want %d (len %d)", round, got.id, len(q), want.id, len(model))
		}
		if tail := q[:cap(q)][len(q)]; tail != nil {
			t.Fatalf("round %d: popFront left task %d behind the queue", round, tail.id)
		}
	}
	// In place: a steady push/pop cycle reuses the backing array.
	q = q[:0]
	if allocs := testing.AllocsPerRun(1000, func() {
		q = append(q, tasks[0], tasks[1])
		popFront(&q)
		popFront(&q)
	}); allocs != 0 {
		t.Fatalf("push/pop cycle allocates %.1f times", allocs)
	}
}

// TestSwappedQueuesKeepFIFO runs barrier, broadcast and semaphore tasks on a
// contended VM and checks, for every release, that waiters are woken in the
// order they queued: barriers and broadcasts swap their arrays on each
// release, and semaphore waiters pop in place.
func TestSwappedQueuesKeepFIFO(t *testing.T) {
	eng := sim.NewEngine(4)
	cfg := host.DefaultConfig()
	cfg.Sockets, cfg.CoresPerSocket, cfg.ThreadsPerCore = 1, 2, 2
	h := host.New(eng, cfg)
	vm := NewVM(h, "vm", []*host.Thread{h.Thread(0), h.Thread(1), h.Thread(2), h.Thread(3)}, DefaultParams())
	vm.Start()
	host.NewPatternContender(h, "burst", h.Thread(1), 2*sim.Millisecond, 3*sim.Millisecond, 0)

	// want collects, per primitive, the wake order the FIFO rule implies;
	// got collects the order the VM actually woke them in.
	want := map[string][]int{}
	got := map[string][]int{}
	kindOf := map[int64]string{} // task id -> primitive it waits on
	rng := rand.New(rand.NewSource(8))

	const parties = 4
	bar := NewBarrier(parties)
	for i := 0; i < parties; i++ {
		step := 0
		cycles := float64(20_000 + rng.Intn(200_000))
		tk := vm.Spawn(fmt.Sprintf("bar%d", i), func(sim.Time) Segment {
			step++
			if step%2 == 1 {
				return Compute(cycles)
			}
			if len(bar.arrived) == parties-1 { // self releases the others
				for _, o := range bar.arrived {
					want["barrier"] = append(want["barrier"], o.id)
				}
			}
			return BarrierWait(bar)
		})
		kindOf[int64(tk.id)] = "barrier"
	}

	cond := &Cond{}
	var condQueue []*Task // cond waiters since the last broadcast, in order
	for i := 0; i < 5; i++ {
		var self *Task
		step := 0
		self = vm.Spawn(fmt.Sprintf("wait%d", i), func(sim.Time) Segment {
			step++
			if step%2 == 1 {
				condQueue = append(condQueue, self)
				return Wait(cond)
			}
			return Compute(float64(10_000 + rng.Intn(100_000)))
		})
		kindOf[int64(self.id)] = "cond"
	}
	step := 0
	vm.Spawn("broadcaster", func(sim.Time) Segment {
		step++
		if step%2 == 1 {
			return Sleep(sim.Duration(100+rng.Intn(400)) * sim.Microsecond)
		}
		for _, w := range condQueue {
			want["cond"] = append(want["cond"], w.id)
		}
		condQueue = condQueue[:0]
		return Broadcast(cond)
	})

	sem := NewSemaphore(0)
	var semQueue []*Task
	for i := 0; i < 5; i++ {
		var self *Task
		step := 0
		self = vm.Spawn(fmt.Sprintf("cons%d", i), func(sim.Time) Segment {
			step++
			if step%2 == 1 {
				if sem.count == 0 {
					semQueue = append(semQueue, self)
				}
				return SemWait(sem)
			}
			return Compute(float64(10_000 + rng.Intn(200_000)))
		})
		kindOf[int64(self.id)] = "sem"
	}
	pstep := 0
	vm.Spawn("producer", func(sim.Time) Segment {
		pstep++
		if pstep%2 == 1 {
			return Sleep(sim.Duration(50+rng.Intn(200)) * sim.Microsecond)
		}
		if len(semQueue) > 0 {
			want["sem"] = append(want["sem"], semQueue[0].id)
			semQueue = semQueue[1:]
		}
		return SemPost(sem)
	})

	// Spawn wakeups happened before the observer: only releases count.
	vm.SetTracer(vtrace.NewObserver(func(ev vtrace.Event) {
		if ev.Kind != vtrace.KindTaskWakeup {
			return
		}
		if k, ok := kindOf[ev.A0]; ok {
			got[k] = append(got[k], int(ev.A0))
		}
	}))
	eng.RunFor(3 * sim.Second)

	for _, k := range []string{"barrier", "cond", "sem"} {
		if len(want[k]) < 500 {
			t.Fatalf("%s: only %d wakeups; the scenario is too quiet", k, len(want[k]))
		}
		if len(got[k]) != len(want[k]) {
			t.Fatalf("%s: %d wakeups, FIFO model expects %d", k, len(got[k]), len(want[k]))
		}
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("%s: wakeup %d woke task %d, FIFO order wants %d", k, i, got[k][i], want[k][i])
			}
		}
	}
}
