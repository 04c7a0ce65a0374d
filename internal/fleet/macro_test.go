package fleet

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vsched/internal/cloudgen"
	"vsched/internal/faults"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// macroTestTrace generates a small but non-trivial cloud trace: a few hours,
// a few dozen heterogeneous hosts, a few thousand VM lifetimes.
func macroTestTrace(seed int64) cloudgen.Trace {
	cfg := cloudgen.DefaultConfig()
	cfg.Horizon = 6 * cloudgen.Hour
	cfg.BaseRate = 300
	cfg.Hosts = []cloudgen.HostClass{
		{Name: "std", Count: 16, Cores: 8, SMT: 2, SpeedFactor: 1.0},
		{Name: "big", Count: 8, Cores: 16, SMT: 2, SpeedFactor: 1.15},
		{Name: "small", Count: 8, Cores: 8, SMT: 1, SpeedFactor: 0.9},
	}
	return cloudgen.Generate(seed, cfg)
}

func TestMacroShardedMatchesSerial(t *testing.T) {
	trace := macroTestTrace(42)
	for _, pol := range []Policy{FirstFit{}, LeastLoaded{}, StealAware{}} {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			serial := RunMacro(MacroConfig{Trace: trace, Policy: pol, Shards: 1})
			sharded := RunMacro(MacroConfig{Trace: trace, Policy: pol, Shards: 7})
			if !bytes.Equal(serial.Snapshot, sharded.Snapshot) {
				t.Fatalf("serial digest %s != sharded digest %s",
					SnapshotDigest(serial.Snapshot), SnapshotDigest(sharded.Snapshot))
			}
			if serial.Placed == 0 || serial.Lifetimes == 0 {
				t.Fatalf("degenerate run: placed=%d lifetimes=%d", serial.Placed, serial.Lifetimes)
			}
		})
	}
}

func TestMacroDeterministic(t *testing.T) {
	trace := macroTestTrace(7)
	a := RunMacro(MacroConfig{Trace: trace, Policy: StealAware{}, Shards: 4})
	b := RunMacro(MacroConfig{Trace: trace, Policy: StealAware{}, Shards: 4})
	if !bytes.Equal(a.Snapshot, b.Snapshot) {
		t.Fatalf("two identical runs diverged: %s vs %s",
			SnapshotDigest(a.Snapshot), SnapshotDigest(b.Snapshot))
	}
}

func TestMacroTelemetryInert(t *testing.T) {
	trace := macroTestTrace(11)
	bare := RunMacro(MacroConfig{Trace: trace, Policy: LeastLoaded{}, Shards: 2})
	observed := RunMacro(MacroConfig{
		Trace: trace, Policy: LeastLoaded{}, Shards: 2,
		Telemetry: &telemetry.Config{Interval: 30 * sim.Second},
	})
	if !bytes.Equal(bare.Snapshot, observed.Snapshot) {
		t.Fatal("attaching telemetry changed the simulation outcome")
	}
	if observed.Telemetry == nil {
		t.Fatal("telemetry recorder not attached")
	}
	snap := observed.Telemetry.Snapshot(false)
	found := false
	for _, s := range snap.Series {
		if s.Name == "fleet.macro.util_mean" {
			found = true
		}
	}
	if !found {
		t.Fatal("fleet.macro.util_mean series missing from telemetry snapshot")
	}
}

func TestMacroAccounting(t *testing.T) {
	trace := macroTestTrace(3)
	res := RunMacro(MacroConfig{Trace: trace, Policy: LeastLoaded{}, Shards: 3})
	if res.Placed+res.Rejected != res.Arrivals {
		t.Fatalf("placed %d + rejected %d != arrivals %d", res.Placed, res.Rejected, res.Arrivals)
	}
	if res.Lifetimes > res.Placed {
		t.Fatalf("lifetimes %d > placed %d", res.Lifetimes, res.Placed)
	}
	if res.DIMean < 0 || res.DIMax < res.DIMean {
		t.Fatalf("bad DI stats: mean %f max %f", res.DIMean, res.DIMax)
	}
	if res.P95Steal < 0 || res.P95Steal > 1 {
		t.Fatalf("p95 steal %f out of range", res.P95Steal)
	}
	if res.Makespan > sim.Time(0).Add(trace.Horizon) {
		t.Fatalf("makespan %v past horizon %v", res.Makespan, trace.Horizon)
	}
	if res.Events == 0 {
		t.Fatal("no events counted")
	}
}

// TestMacroContentionModel pins the analytic model on a hand-built trace:
// one 4-thread host, two 4-vCPU batch VMs with 100s budgets. Demand 8 on 4
// threads gives rho=0.5, so each VM finishes its budget at exactly t=200s
// with a steal fraction of exactly 0.5.
func TestMacroContentionModel(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 300 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 4, Class: cloudgen.Batch, Demand: 1.0, Work: 100 * sim.Second},
			{ID: 1, At: 0, VCPUs: 4, Class: cloudgen.Batch, Demand: 1.0, Work: 100 * sim.Second},
		},
	}
	res := RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}})
	if res.Placed != 2 || res.Rejected != 0 {
		t.Fatalf("placed %d rejected %d, want 2/0", res.Placed, res.Rejected)
	}
	want := sim.Time(0).Add(200 * sim.Second)
	if res.Makespan != want {
		t.Fatalf("makespan %v, want %v", res.Makespan, want)
	}
	if res.P95Steal != 0.5 {
		t.Fatalf("p95 steal %f, want exactly 0.5", res.P95Steal)
	}
	if res.Lifetimes != 2 {
		t.Fatalf("lifetimes %d, want 2", res.Lifetimes)
	}
}

// TestMacroRejection: a VM larger than every host's admission bound must be
// rejected without disturbing anything else.
func TestMacroRejection(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 120 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 64, Class: cloudgen.Service, Demand: 0.3, Lifetime: 60 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.3, Lifetime: 60 * sim.Second},
		},
	}
	res := RunMacro(MacroConfig{Trace: trace, Policy: LeastLoaded{}})
	if res.Rejected != 1 || res.Placed != 1 {
		t.Fatalf("placed %d rejected %d, want 1/1", res.Placed, res.Rejected)
	}
	if res.Lifetimes != 1 {
		t.Fatalf("lifetimes %d, want 1", res.Lifetimes)
	}
	// An uncontended service VM accrues zero steal.
	if res.P95Steal != 0 {
		t.Fatalf("p95 steal %f, want 0", res.P95Steal)
	}
}

// faultTrace2 is a hand-built two-host trace for fault mechanics: one service
// VM and one batch VM, both FirstFit-placed on host 0.
func faultTrace2(horizon sim.Duration) cloudgen.Trace {
	return cloudgen.Trace{
		Seed:    1,
		Horizon: horizon,
		Hosts: []cloudgen.HostSpec{
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
		},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 600 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Batch, Demand: 1.0, Work: 300 * sim.Second},
		},
	}
}

func crashAt90() *faults.Schedule {
	return &faults.Schedule{Seed: 1, Events: []faults.Event{
		{At: sim.Time(0).Add(90 * sim.Second), Host: 0, Kind: faults.Crash, Duration: 600 * sim.Second},
	}}
}

// TestMacroCrashNoRecovery: without recovery a crash is terminal for every
// resident VM — the graceful-degradation baseline. Lost batch progress is
// accounted exactly and the conservation ledger still balances (result()
// panics if not).
func TestMacroCrashNoRecovery(t *testing.T) {
	res := RunMacro(MacroConfig{
		Trace:  faultTrace2(1200 * sim.Second),
		Policy: FirstFit{},
		Faults: crashAt90(),
	})
	if res.Crashes != 1 || res.Killed != 2 || res.Lost != 2 {
		t.Fatalf("crashes=%d killed=%d lost=%d, want 1/2/2", res.Crashes, res.Killed, res.Lost)
	}
	if res.Lifetimes != 0 || res.Rejected != 0 || res.RunningAtEnd != 0 || res.PendingAtEnd != 0 {
		t.Fatalf("lifetimes=%d rejected=%d running=%d pending=%d, want all 0",
			res.Lifetimes, res.Rejected, res.RunningAtEnd, res.PendingAtEnd)
	}
	// The crash lands on the t=60 boundary; the batch VM ran [0,60) at rho=1,
	// so exactly 60 per-vCPU seconds x 2 vCPUs of progress were destroyed.
	want := 120.0 / 3600
	if math.Abs(res.LostVCPUHours-want) > 1e-12 {
		t.Fatalf("lost vCPU-hours %v, want %v", res.LostVCPUHours, want)
	}
	if res.Restarts != 0 || res.Evacuations != 0 {
		t.Fatalf("restarts=%d evacuations=%d without recovery", res.Restarts, res.Evacuations)
	}
}

// TestMacroCrashRecovery: with recovery both victims restart on the surviving
// host after one backoff interval and complete; recovery strictly beats the
// no-recovery baseline, and the availability/MTTR ledger is exact.
func TestMacroCrashRecovery(t *testing.T) {
	trace := faultTrace2(1200 * sim.Second)
	base := RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}, Faults: crashAt90()})
	res := RunMacro(MacroConfig{
		Trace:    trace,
		Policy:   FirstFit{},
		Faults:   crashAt90(),
		Recovery: faults.RecoveryConfig{Enabled: true},
	})
	if res.Killed != 2 || res.Restarts != 2 || res.Lost != 0 {
		t.Fatalf("killed=%d restarts=%d lost=%d, want 2/2/0", res.Killed, res.Restarts, res.Lost)
	}
	if res.Lifetimes != 2 {
		t.Fatalf("lifetimes %d, want 2 (both victims recovered)", res.Lifetimes)
	}
	if res.Lifetimes <= base.Lifetimes {
		t.Fatalf("recovery lifetimes %d not better than baseline %d", res.Lifetimes, base.Lifetimes)
	}
	// Kill at the t=60 boundary, restart at t=60+Backoff(1)=120: TTR is
	// exactly one default backoff.
	if res.MTTRMean != 60 || res.MTTRMax != 60 {
		t.Fatalf("MTTR mean=%v max=%v, want exactly 60s", res.MTTRMean, res.MTTRMax)
	}
	if res.Availability >= 1 || res.Availability <= 0 {
		t.Fatalf("availability %v, want in (0,1) after an outage", res.Availability)
	}
	if res.DownVCPUHours != 240.0/3600 {
		t.Fatalf("down vCPU-hours %v, want 240s x 2 VMs worth", res.DownVCPUHours)
	}
}

// TestMacroBrownoutEvacuation: a brownout shrinks effective capacity below the
// host's commitment, and recovery evacuates the newest VM through the policy
// until the host fits again.
func TestMacroBrownoutEvacuation(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 900 * sim.Second,
		Hosts: []cloudgen.HostSpec{
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
		},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
			{ID: 2, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
		},
	}
	sched := &faults.Schedule{Seed: 1, Events: []faults.Event{
		{At: sim.Time(0).Add(70 * sim.Second), Host: 0, Kind: faults.Brownout,
			Duration: 300 * sim.Second, Factor: 0.5},
	}}
	res := RunMacro(MacroConfig{
		Trace: trace, Policy: FirstFit{}, Faults: sched,
		Recovery: faults.RecoveryConfig{Enabled: true},
	})
	if res.Brownouts != 1 || res.Evacuations != 1 || res.EvacFailures != 0 {
		t.Fatalf("brownouts=%d evacuations=%d failures=%d, want 1/1/0",
			res.Brownouts, res.Evacuations, res.EvacFailures)
	}
	if res.Killed != 0 || res.Lost != 0 || res.Lifetimes != 3 {
		t.Fatalf("killed=%d lost=%d lifetimes=%d, want 0/0/3", res.Killed, res.Lost, res.Lifetimes)
	}
}

// TestMacroBrownoutGracefulDegradation: with a single host there is nowhere to
// evacuate to — the VMs stay, the overcommit persists, and the squeeze shows
// up as steal rather than as lost VMs.
func TestMacroBrownoutGracefulDegradation(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 900 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 1.0, Lifetime: 500 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 1.0, Lifetime: 500 * sim.Second},
			{ID: 2, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 1.0, Lifetime: 500 * sim.Second},
		},
	}
	sched := &faults.Schedule{Seed: 1, Events: []faults.Event{
		{At: sim.Time(0).Add(70 * sim.Second), Host: 0, Kind: faults.Brownout,
			Duration: 300 * sim.Second, Factor: 0.5},
	}}
	res := RunMacro(MacroConfig{
		Trace: trace, Policy: FirstFit{}, Faults: sched,
		Recovery: faults.RecoveryConfig{Enabled: true},
	})
	if res.Evacuations != 0 {
		t.Fatalf("evacuations %d with a single host", res.Evacuations)
	}
	if res.Lifetimes != 3 || res.Lost != 0 {
		t.Fatalf("lifetimes=%d lost=%d, want 3/0 (degrade, don't drop)", res.Lifetimes, res.Lost)
	}
	if res.TotalStealHours <= 0 {
		t.Fatal("brownout squeeze produced no steal")
	}
}

// TestMacroStallFreezes: a one-epoch stall contributes pure steal — no
// progress, no kills — and stretches the batch makespan by exactly the stall.
func TestMacroStallFreezes(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 600 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Batch, Demand: 1.0, Work: 120 * sim.Second},
		},
	}
	clean := RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}})
	sched := &faults.Schedule{Seed: 1, Events: []faults.Event{
		{At: sim.Time(0).Add(60 * sim.Second), Host: 0, Kind: faults.Stall, Duration: 60 * sim.Second},
	}}
	res := RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}, Faults: sched})
	if res.Stalls != 1 || res.Killed != 0 || res.Lost != 0 {
		t.Fatalf("stalls=%d killed=%d lost=%d, want 1/0/0", res.Stalls, res.Killed, res.Lost)
	}
	if res.Lifetimes != 1 {
		t.Fatalf("lifetimes %d, want 1", res.Lifetimes)
	}
	if got, want := res.Makespan, clean.Makespan.Add(60*sim.Second); got != want {
		t.Fatalf("stalled makespan %v, want clean %v + 60s = %v", got, clean.Makespan, want)
	}
	// Frozen epoch: 2 vCPUs x demand 1.0 x 60s of pure steal, 240 vCPU-s
	// served across the two productive epochs -> steal fraction exactly 1/3.
	if res.P95Steal != 1.0/3.0 {
		t.Fatalf("steal fraction %v, want exactly 1/3", res.P95Steal)
	}
}

// TestMacroEvacFailure: the deterministic migration-failure law aborts
// evacuation attempts; the fault plane degrades gracefully (nothing is lost)
// and the failures are counted.
func TestMacroEvacFailure(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 900 * sim.Second,
		Hosts: []cloudgen.HostSpec{
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
			{Class: "h", Threads: 4, SpeedFactor: 1.0},
		},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
			{ID: 2, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.5, Lifetime: 500 * sim.Second},
		},
	}
	// Find a seed whose first migration attempt fails under p=0.99: the law is
	// a pure function of (seed, attempt), so scan rather than guess.
	var sched *faults.Schedule
	for seed := int64(1); seed < 64; seed++ {
		s := &faults.Schedule{Seed: seed, MigFailProb: 0.99, Events: []faults.Event{
			{At: sim.Time(0).Add(70 * sim.Second), Host: 0, Kind: faults.Brownout,
				Duration: 300 * sim.Second, Factor: 0.5},
		}}
		if s.MigrationFails(1) {
			sched = s
			break
		}
	}
	if sched == nil {
		t.Fatal("no seed in [1,64) fails its first migration at p=0.99")
	}
	res := RunMacro(MacroConfig{
		Trace: trace, Policy: FirstFit{}, Faults: sched,
		Recovery: faults.RecoveryConfig{Enabled: true},
	})
	if res.EvacFailures == 0 {
		t.Fatal("expected at least one evacuation failure")
	}
	if res.Lost != 0 || res.Killed != 0 || res.Lifetimes != 3 {
		t.Fatalf("lost=%d killed=%d lifetimes=%d, want 0/0/3", res.Lost, res.Killed, res.Lifetimes)
	}
}

// TestMacroRejectionRetry: with recovery enabled an admission rejection is not
// terminal — the VM waits in the retry queue and lands once capacity frees up,
// conserving demand instead of dropping it.
func TestMacroRejectionRetry(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 600 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 6, Class: cloudgen.Service, Demand: 0.3, Lifetime: 100 * sim.Second},
			{ID: 1, At: sim.Time(0).Add(10 * sim.Second), VCPUs: 6, Class: cloudgen.Service, Demand: 0.3, Lifetime: 100 * sim.Second},
		},
	}
	base := RunMacro(MacroConfig{Trace: trace, Policy: FirstFit{}})
	if base.Rejected != 1 || base.Lifetimes != 1 {
		t.Fatalf("baseline rejected=%d lifetimes=%d, want 1/1", base.Rejected, base.Lifetimes)
	}
	res := RunMacro(MacroConfig{
		Trace: trace, Policy: FirstFit{},
		Recovery: faults.RecoveryConfig{Enabled: true},
	})
	if res.Rejected != 0 || res.Lifetimes != 2 || res.Placed != 2 {
		t.Fatalf("rejected=%d lifetimes=%d placed=%d, want 0/2/2", res.Rejected, res.Lifetimes, res.Placed)
	}
	if res.Restarts != 0 {
		t.Fatalf("admission retries counted as restarts: %d", res.Restarts)
	}
}

// TestMacroRetryExhaustion: a VM that can never fit burns its bounded retry
// budget and lands as a terminal rejection — visible in the ledger and the
// snapshot, never silently dropped.
func TestMacroRetryExhaustion(t *testing.T) {
	trace := cloudgen.Trace{
		Seed:    1,
		Horizon: 1200 * sim.Second,
		Hosts:   []cloudgen.HostSpec{{Class: "h", Threads: 4, SpeedFactor: 1.0}},
		VMs: []cloudgen.VM{
			{ID: 0, At: 0, VCPUs: 64, Class: cloudgen.Service, Demand: 0.3, Lifetime: 60 * sim.Second},
			{ID: 1, At: 0, VCPUs: 2, Class: cloudgen.Service, Demand: 0.3, Lifetime: 90 * sim.Second},
		},
	}
	res := RunMacro(MacroConfig{
		Trace: trace, Policy: FirstFit{},
		Recovery: faults.RecoveryConfig{Enabled: true, MaxRetries: 2},
	})
	if res.Rejected != 1 || res.PendingAtEnd != 0 {
		t.Fatalf("rejected=%d pending=%d, want 1/0 after retry exhaustion", res.Rejected, res.PendingAtEnd)
	}
	if res.Lifetimes != 1 {
		t.Fatalf("lifetimes %d, want 1", res.Lifetimes)
	}
}

// TestMacroFaultShardedMatchesSerial: the whole fault plane — kills, retries,
// restarts, evacuations, the migration-failure law — must keep serial and
// sharded runs byte-identical under a generated fault storm.
func TestMacroFaultShardedMatchesSerial(t *testing.T) {
	trace := macroTestTrace(42)
	sched := faults.Generate(42, len(trace.Hosts), trace.Horizon, faults.Config{
		CrashMTBF:    20 * 3600 * sim.Second,
		BrownoutMTBF: 10 * 3600 * sim.Second,
		StallMTBF:    5 * 3600 * sim.Second,
		MigFailProb:  0.2,
	})
	if len(sched.Events) == 0 {
		t.Fatal("degenerate fault schedule")
	}
	for _, pol := range []Policy{FirstFit{}, StealAware{}} {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			mk := func(shards int) *MacroResult {
				return RunMacro(MacroConfig{
					Trace: trace, Policy: pol, Shards: shards, Faults: &sched,
					Recovery: faults.RecoveryConfig{Enabled: true},
				})
			}
			serial, sharded := mk(1), mk(7)
			if !bytes.Equal(serial.Snapshot, sharded.Snapshot) {
				t.Fatalf("fault plane diverged: serial %s != sharded %s",
					SnapshotDigest(serial.Snapshot), SnapshotDigest(sharded.Snapshot))
			}
			if serial.Crashes == 0 || serial.Killed == 0 || serial.Restarts == 0 {
				t.Fatalf("storm too quiet: crashes=%d killed=%d restarts=%d",
					serial.Crashes, serial.Killed, serial.Restarts)
			}
			again := mk(7)
			if !bytes.Equal(sharded.Snapshot, again.Snapshot) {
				t.Fatal("two identical faulted runs diverged")
			}
		})
	}
}

// calendarEdgeTrace is a hand-rolled trace aimed at the departure
// bookkeeping's edges on a 1000 s horizon: arrivals on and between epoch
// boundaries, service lifetimes from zero to past the horizon (many shorter
// than one epoch, some landing exactly on a boundary), and batch budgets
// sized so some finish in the final epoch and some are still resident at the
// horizon.
func calendarEdgeTrace(seed int64) cloudgen.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := cloudgen.Trace{
		Seed:    seed,
		Horizon: 1000 * sim.Second,
		Hosts: []cloudgen.HostSpec{
			{Class: "a", Threads: 4, SpeedFactor: 1.0},
			{Class: "b", Threads: 8, SpeedFactor: 1.2},
			{Class: "c", Threads: 2, SpeedFactor: 0.8},
			{Class: "a", Threads: 4, SpeedFactor: 1.0},
			{Class: "d", Threads: 16, SpeedFactor: 1.1},
			{Class: "c", Threads: 2, SpeedFactor: 0.8},
		},
	}
	at := sim.Time(0)
	for id := 0; at < sim.Time(0).Add(tr.Horizon); id++ {
		vm := cloudgen.VM{ID: id, At: at, VCPUs: 1 + rng.Intn(4), Demand: 0.2 + 0.8*rng.Float64()}
		switch r := rng.Intn(10); {
		case r < 3:
			vm.Class = cloudgen.Batch
			vm.Work = sim.Duration(1+rng.Intn(900)) * sim.Second
		case r < 5:
			vm.Lifetime = sim.Duration(rng.Intn(45)) * sim.Second // under one epoch, incl. 0
		case r < 6:
			vm.Lifetime = sim.Duration(45*(1+rng.Intn(22))) * sim.Second // a boundary multiple
		default:
			vm.Lifetime = sim.Duration(1+rng.Intn(1500)) * sim.Second
		}
		tr.VMs = append(tr.VMs, vm)
		if rng.Intn(4) == 0 {
			at = at.Add(45 * sim.Second * sim.Duration(rng.Intn(2))) // land on a boundary
			at = sim.Time(int64(at) / int64(45*sim.Second) * int64(45*sim.Second))
		} else {
			at = at.Add(sim.Duration(rng.Intn(12)) * sim.Second)
		}
	}
	return tr
}

// calendarEdgeFaults crashes hosts through the run; the host-4 crash at
// 950 s lands on the 945 s boundary, so with a 55 s base backoff its
// victims' first restart attempt is due exactly at the 1000 s horizon.
func calendarEdgeFaults() *faults.Schedule {
	at := func(s int) sim.Time { return sim.Time(0).Add(sim.Duration(s) * sim.Second) }
	return &faults.Schedule{Seed: 3, MigFailProb: 0.1, Events: []faults.Event{
		{At: at(100), Host: 1, Kind: faults.Crash, Duration: 200 * sim.Second},
		{At: at(200), Host: 0, Kind: faults.Brownout, Duration: 300 * sim.Second, Factor: 0.5},
		{At: at(330), Host: 2, Kind: faults.Stall, Duration: 45 * sim.Second},
		{At: at(500), Host: 3, Kind: faults.Crash, Duration: 90 * sim.Second},
		{At: at(700), Host: 1, Kind: faults.Crash, Duration: 100 * sim.Second},
		{At: at(950), Host: 4, Kind: faults.Crash, Duration: 30 * sim.Second},
	}}
}

// TestMacroGoldenDigests pins the snapshot digest of small runs that stress
// the departure bookkeeping: an epoch that does not divide the horizon,
// sub-epoch and zero lifetimes, batch completions in the final epoch, VMs
// resident at the horizon, and crash restarts due on the horizon boundary.
// The digests were recorded from the departure-queue implementation that
// re-sorted every live VM each epoch; any departure-order change breaks them.
// The gen-storm cases add a generated storm of crashes, brownouts and stalls
// with a 20% migration-failure law, with recovery on (kills, restarts and
// evacuations every few epochs) and off (every crash victim lost). They were
// recorded from the implementation that kept each host's live VMs as an id
// list into the VM table and re-summed host demand every epoch, so they pin
// the live-record flushes and the evacuation order of the current one.
func TestMacroGoldenDigests(t *testing.T) {
	edge := calendarEdgeTrace(13)
	gen := macroTestTrace(5)
	rcv := faults.RecoveryConfig{Enabled: true, BaseBackoff: 55 * sim.Second}
	storm := faults.Generate(5, len(gen.Hosts), 3*3600*sim.Second, faults.Config{
		CrashMTBF:    6 * 3600 * sim.Second,
		BrownoutMTBF: 3 * 3600 * sim.Second,
		StallMTBF:    2 * 3600 * sim.Second,
		MigFailProb:  0.2,
	})
	cases := []struct {
		name string
		cfg  MacroConfig
		want [3]string // FirstFit, LeastLoaded, StealAware
	}{
		{"edge-clean", MacroConfig{Trace: edge, Epoch: 45 * sim.Second},
			[3]string{"1f85539183b5b6f2", "ad44fadc1d873af0", "e8dbff736e440050"}},
		{"edge-faults", MacroConfig{Trace: edge, Epoch: 45 * sim.Second, Faults: calendarEdgeFaults(), Recovery: rcv},
			[3]string{"7d2328569bcef644", "a55165df491192b2", "2d398f6761dfba55"}},
		{"gen-2h", MacroConfig{Trace: gen, Epoch: 45 * sim.Second, Horizon: 2 * 3600 * sim.Second},
			[3]string{"47e482b62c5c4b47", "08414cbe8ace6a35", "d0b5eae34a63f3b8"}},
		{"gen-storm", MacroConfig{Trace: gen, Epoch: 45 * sim.Second, Horizon: 3 * 3600 * sim.Second, Faults: &storm, Recovery: rcv},
			[3]string{"f806fe0b38a1cfb6", "17d5502640c4cffb", "890513ee6629e6b9"}},
		{"gen-storm-norecovery", MacroConfig{Trace: gen, Epoch: 45 * sim.Second, Horizon: 3 * 3600 * sim.Second, Faults: &storm},
			[3]string{"99453212976e359e", "02d099ba83f2b135", "93080722d8decc80"}},
	}
	for _, c := range cases {
		for p, pol := range []Policy{FirstFit{}, LeastLoaded{}, StealAware{}} {
			c, p, pol := c, p, pol
			t.Run(c.name+"/"+pol.Name(), func(t *testing.T) {
				for _, shards := range []int{1, 8} {
					cfg := c.cfg
					cfg.Policy, cfg.Shards = pol, shards
					res := RunMacro(cfg)
					if got := SnapshotDigest(res.Snapshot); got != c.want[p] {
						t.Errorf("shards=%d: digest %s, want %s", shards, got, c.want[p])
					}
				}
			})
		}
	}
}

// TestInsertRetryMatchesStableSort: the retry queue kept sorted on insert must
// hold, at every boundary, exactly what appending and then stable-sorting by
// (readyAt, id) held. Random rounds interleave inserts with due-prefix cuts,
// readyAt draws from a handful of instants so ties are the common case, and
// ids are unique as a VM has at most one queue entry.
func TestInsertRetryMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stable := func(q []retryEntry) {
		sort.SliceStable(q, func(a, b int) bool {
			if q[a].readyAt != q[b].readyAt {
				return q[a].readyAt < q[b].readyAt
			}
			return q[a].id < q[b].id
		})
	}
	instant := func() sim.Time { return sim.Time(0).Add(sim.Duration(rng.Intn(6)) * 60 * sim.Second) }
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(80)
		var got, want []retryEntry
		for _, id := range rng.Perm(3 * n)[:n] {
			e := retryEntry{id: int32(id), attempt: int32(1 + rng.Intn(4)), readyAt: instant(), admit: rng.Intn(2) == 0}
			got = insertRetry(got, e)
			want = append(want, e)
			if rng.Intn(8) != 0 {
				continue
			}
			// A boundary: cut the entries due by now off both queues.
			stable(want)
			now := instant()
			cut := 0
			for cut < len(want) && want[cut].readyAt <= now {
				cut++
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: sorted insert %v != stable sort %v", round, got, want)
			}
			got, want = got[cut:], want[cut:]
		}
		stable(want)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: sorted insert %v != stable sort %v", round, got, want)
		}
	}
}
