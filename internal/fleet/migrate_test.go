package fleet

import (
	"testing"

	"vsched/internal/host"
	"vsched/internal/sim"
)

// TestMigrationCooldownStopsPingPong reproduces the hotspot flip: the steal
// EMA peak moves from host 0 to host 1 between two controller passes, and
// without a cooldown the controller shuttles the same VM straight back.
func TestMigrationCooldownStopsPingPong(t *testing.T) {
	bt := VMType{Name: "b", VCPUs: 2, BatchWork: sim.Millisecond}
	mk := func(cool sim.Duration) *Fleet {
		f := New(Config{
			Seed: 1, Hosts: 2, HostConfig: testHostConfig(),
			Policy:  FirstFit{},
			Horizon: 300 * sim.Millisecond,
			Migration: MigrationConfig{
				MinSteal: 0.05, Margin: 0.02,
				Downtime: sim.Millisecond, Cooldown: cool,
			},
		})
		f.eng.At(0, func() {
			f.arrive(Arrival{ID: 0, Type: bt, At: 0})
			f.arrive(Arrival{ID: 1, Type: bt, At: 0})
		})
		flip := func(hot int) func() {
			return func() {
				f.hosts[hot].stealEMA, f.hosts[1-hot].stealEMA = 0.5, 0
				f.migrateOnce()
			}
		}
		f.eng.At(sim.Time(0).Add(100*sim.Millisecond), flip(0))
		f.eng.At(sim.Time(0).Add(200*sim.Millisecond), flip(1))
		f.eng.RunFor(300 * sim.Millisecond)
		return f
	}
	if got := mk(0).migrations; got != 2 {
		t.Fatalf("without cooldown: %d migrations, want 2 (the ping-pong)", got)
	}
	if got := mk(300 * sim.Millisecond).migrations; got != 1 {
		t.Fatalf("with cooldown: %d migrations, want 1 (return trip damped)", got)
	}
}

// TestMigrationWhileExiting: a VM departs inside its stop-and-copy window.
// The pending wake must not resurrect it — entities stay blocked, occupancy
// stays released, and the departure counts exactly once.
func TestMigrationWhileExiting(t *testing.T) {
	bt := VMType{Name: "b", VCPUs: 2, BatchWork: sim.Millisecond}
	f := New(Config{
		Seed: 1, Hosts: 2, HostConfig: testHostConfig(),
		Policy:    FirstFit{},
		Horizon:   100 * sim.Millisecond,
		Migration: MigrationConfig{Downtime: 20 * sim.Millisecond},
	})
	f.eng.At(0, func() { f.arrive(Arrival{ID: 0, Type: bt, At: 0}) })
	f.eng.At(sim.Time(0).Add(10*sim.Millisecond), func() { f.moveVM(f.vms[0], 1) })
	f.eng.At(sim.Time(0).Add(15*sim.Millisecond), func() { f.depart(f.vms[0]) })
	f.eng.RunFor(100 * sim.Millisecond)
	vm := f.vms[0]
	if vm.alive || f.departed != 1 || f.migrations != 1 {
		t.Fatalf("alive=%v departed=%d migrations=%d, want false/1/1",
			vm.alive, f.departed, f.migrations)
	}
	for _, hs := range f.hosts {
		if hs.committed != 0 || len(hs.vms) != 0 {
			t.Fatalf("host %d still holds committed=%d vms=%d after exit",
				hs.index, hs.committed, len(hs.vms))
		}
	}
	// The downtime-end wake fired after the depart and must have left the
	// blocked entities alone.
	for i, v := range vm.gvm.VCPUs() {
		if v.Entity().State() != host.Blocked {
			t.Fatalf("vCPU %d woke after its VM exited: state %v", i, v.Entity().State())
		}
	}
}
