package host

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vsched/internal/sim"
)

// checkHostInvariants asserts the structural properties of the host
// scheduler at quiescent points: every entity is in a legal state, a
// Running entity is the current of exactly its home thread, queues hold
// only Runnable entities without duplicates, a thread with queued
// entities is never left idle, and every running entity sees the speed the
// model gives its thread right now (no refresh was missed).
func checkHostInvariants(t *testing.T, h *Host) {
	t.Helper()
	cfg := h.Config()
	for s := 0; s < cfg.Sockets; s++ {
		busy := 0
		for c := 0; c < cfg.CoresPerSocket; c++ {
			for slot := 0; slot < cfg.ThreadsPerCore; slot++ {
				if h.ThreadAt(s, c, slot).Current() != nil {
					busy++
					break
				}
			}
		}
		if h.busyCoreCount[s] != busy {
			t.Fatalf("socket %d busy-core count %d, recount %d", s, h.busyCoreCount[s], busy)
		}
	}
	for i := 0; i < h.NumThreads(); i++ {
		th := h.Thread(i)
		seen := map[*Entity]bool{}
		if cur := th.Current(); cur != nil {
			if cur.State() != Running {
				t.Fatalf("thread %d current in state %v", i, cur.State())
			}
			if cur.Thread() != th {
				t.Fatalf("thread %d current homed on %d", i, cur.Thread().ID())
			}
			seen[cur] = true
		}
		for _, e := range th.queue {
			if seen[e] {
				t.Fatalf("entity %s appears twice on thread %d", e.Name(), i)
			}
			seen[e] = true
			if e.State() != Runnable {
				t.Fatalf("queued entity %s in state %v", e.Name(), e.State())
			}
			if e.Thread() != th {
				t.Fatalf("queued entity %s homed elsewhere", e.Name())
			}
		}
		if th.Current() == nil && len(th.queue) > 0 {
			t.Fatalf("thread %d idle with %d runnable entities", i, len(th.queue))
		}
		if th.Current() == nil {
			continue
		}
		if th.curSpeed != th.effectiveSpeed() {
			t.Fatalf("thread %d runs at %v, model says %v", i, th.curSpeed, th.effectiveSpeed())
		}
		// The model from first principles: SMT contention when the sibling
		// runs, turbo when this core is the socket's only busy one.
		want := cfg.BaseSpeed * th.SpeedFactor()
		if sib := th.Sibling(); sib != nil && sib.Current() != nil {
			want *= cfg.SMTFactor
		}
		if cfg.TurboFactor > 1 && h.busyCoreCount[th.Socket()] == 1 {
			want *= cfg.TurboFactor
		}
		if math.Abs(th.curSpeed-want) > 1e-9 {
			t.Fatalf("thread %d runs at %v, want %v", i, th.curSpeed, want)
		}
	}
}

// TestHostSchedulerStateFuzz drives the host scheduler with random
// operation sequences (wake, block, migrate, reweight, bandwidth and speed
// factor changes) and validates invariants continuously. Odd seeds have at
// least two cores per socket, so the socket's busy-core count crosses
// between 1 and 2 and turbo switches on and off under running entities;
// seeds 2 mod 4 disable turbo.
func TestHostSchedulerStateFuzz(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine(seed)
			cfg := DefaultConfig()
			cfg.Sockets = 1 + rng.Intn(2)
			cfg.CoresPerSocket = 1 + rng.Intn(3)
			cfg.ThreadsPerCore = 1 + rng.Intn(2)
			if seed%2 == 1 {
				cfg.CoresPerSocket = 2 + rng.Intn(3)
			}
			if seed%4 == 2 {
				cfg.TurboFactor = 1
			}
			h := New(eng, cfg)
			n := h.NumThreads()

			var ents []*Entity
			for i := 0; i < 2+rng.Intn(8); i++ {
				e := h.NewEntity(fmt.Sprintf("e%d", i), h.Thread(rng.Intn(n)),
					256+rng.Int63n(2048), NopClient{})
				if rng.Intn(4) == 0 {
					e.SetRT(true)
				}
				ents = append(ents, e)
			}

			for step := 0; step < 400; step++ {
				e := ents[rng.Intn(len(ents))]
				switch rng.Intn(7) {
				case 0:
					e.Wake()
				case 1:
					e.Block()
				case 2:
					e.Migrate(h.Thread(rng.Intn(n)))
				case 3:
					if !e.IsRT() {
						e.SetWeight(128 + rng.Int63n(4096))
					}
				case 4:
					e.SetBandwidth(sim.Duration(rng.Intn(80)) * sim.Millisecond)
				case 5:
					eng.RunFor(sim.Duration(rng.Intn(10)) * sim.Millisecond)
				case 6:
					h.Thread(rng.Intn(n)).SetSpeedFactor(0.5 + rng.Float64())
				}
				checkHostInvariants(t, h)
			}
			// Steady state: all woken entities still make progress.
			for _, e := range ents {
				e.SetBandwidth(0)
				e.Wake()
			}
			before := make([]sim.Duration, len(ents))
			for i, e := range ents {
				before[i] = e.RunTime()
			}
			eng.RunFor(2 * sim.Second)
			checkHostInvariants(t, h)
			progressed := 0
			for i, e := range ents {
				if e.RunTime() > before[i] {
					progressed++
				}
			}
			if progressed == 0 {
				t.Fatal("no entity progressed after the fuzz sequence")
			}
		})
	}
}
