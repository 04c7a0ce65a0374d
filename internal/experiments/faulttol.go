package experiments

import (
	"fmt"

	"vsched/internal/cloudgen"
	"vsched/internal/faults"
	"vsched/internal/fleet"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// FaultTol is the fault-tolerance SLO experiment (no paper counterpart; the
// paper's testbed never loses a host). The fleetscale trace — 1024
// heterogeneous hosts, ~115k VM arrivals, 48 hours — runs under a
// deterministic crash+brownout+stall schedule three ways:
//
//   - clean: no faults, the reference throughput;
//   - faults: the schedule active but recovery disabled — crash victims are
//     terminally lost and admission rejections are final;
//   - recovery: the same schedule with the full reaction enabled — crash
//     victims and rejected arrivals retry through the bounded backoff queue,
//     and degraded hosts evacuate through the placement policy.
//
// The fault schedule is scale-aware: MTBFs are derived from the fleet size
// and horizon so the run sees the same expected event counts (~48 crashes,
// ~96 brownouts, ~144 stalls) at any -scale, keeping the gates meaningful in
// the shrunk test configurations.
//
// Three gates panic on violation rather than merely reporting:
//
//  1. determinism — both faulted modes run serially and sharded, and the
//     final-state snapshots must be byte-identical;
//  2. recovery value — the recovery run must complete strictly more VM
//     lifetimes than the no-recovery run under the identical schedule;
//  3. conservation — every arrival is accounted (arrived == lifetimes +
//     lost + rejected + running + pending, exactly); RunMacro itself
//     panics on any imbalance, so every row of the report implies it.
//
// Reported per mode: throughput accounting plus the SLO surface —
// availability, mean/max time-to-recover, restart and evacuation counts,
// and lost vCPU-hours.
func FaultTol(o Options) *Report {
	trace := cloudgen.Generate(o.Seed, faultedCloudConfig(o.Scale, 48, 96, 144, 0.1))

	tcfg := telemetry.Config{Interval: 60 * sim.Second}
	pol := fleet.StealAware{}

	rep := &Report{
		ID:    "faulttol",
		Title: "Fault tolerance: crash/brownout/stall schedule with recovery vs graceful loss (macro)",
		Header: []string{"mode", "placed", "rejected", "lifetimes", "lost", "restarts",
			"evac", "availability", "MTTR s", "lost vCPU-h"},
	}
	rep.Notef("trace: %d hosts, %d arrivals over %.0fh, %d fault events (seed %d)",
		len(trace.Hosts), len(trace.VMs), trace.Horizon.Seconds()/3600,
		len(trace.Faults.Events), o.Seed)

	run := func(sched *faults.Schedule, rcv faults.RecoveryConfig, shards int, tc *telemetry.Config) *fleet.MacroResult {
		return fleet.RunMacro(fleet.MacroConfig{
			Trace:     trace,
			Policy:    pol,
			Epoch:     60 * sim.Second,
			Shards:    shards,
			Faults:    sched,
			Recovery:  rcv,
			Telemetry: tc,
			Observe:   func(e *sim.Engine) { o.Stats.Track(e) },
		})
	}
	add := func(mode string, r *fleet.MacroResult) {
		rep.Add(mode,
			fmt.Sprintf("%d", r.Placed),
			fmt.Sprintf("%d", r.Rejected),
			fmt.Sprintf("%d", r.Lifetimes),
			fmt.Sprintf("%d", r.Lost),
			fmt.Sprintf("%d", r.Restarts),
			fmt.Sprintf("%d", r.Evacuations),
			fmt.Sprintf("%.5f", r.Availability),
			fmt.Sprintf("%.0f", r.MTTRMean),
			fmt.Sprintf("%.1f", r.LostVCPUHours),
		)
	}

	clean := run(nil, faults.RecoveryConfig{}, 8, nil)
	add("clean", clean)

	noRec := run(trace.Faults, faults.RecoveryConfig{}, 8, nil)
	gateSerialSharded("faulttol", "no-recovery", run(trace.Faults, faults.RecoveryConfig{}, 1, nil), noRec)
	add("faults", noRec)

	rcv := faults.RecoveryConfig{Enabled: true}
	rec := run(trace.Faults, rcv, 8, &tcfg)
	gateSerialSharded("faulttol", "recovery", run(trace.Faults, rcv, 1, nil), rec)
	add("recovery", rec)
	o.Stats.TrackRegistry("faulttol.recovery", rec.Registry)
	o.Stats.TrackTelemetry("faulttol.recovery", rec.Telemetry)

	if rec.Lifetimes <= noRec.Lifetimes {
		panic(fmt.Sprintf("faulttol: recovery completed %d lifetimes, no-recovery %d — recovery must win strictly",
			rec.Lifetimes, noRec.Lifetimes))
	}
	if noRec.Crashes == 0 || noRec.Lost == 0 {
		panic(fmt.Sprintf("faulttol: schedule too quiet (crashes=%d lost=%d) — gates are vacuous",
			noRec.Crashes, noRec.Lost))
	}
	rep.Notef("gates: serial==sharded bytes with faults active; recovery lifetimes %d > %d; "+
		"conservation arrived == lifetimes+lost+rejected+running+pending (RunMacro panics otherwise)",
		rec.Lifetimes, noRec.Lifetimes)
	rep.Notef("recovery: %d crashes killed %d VMs, %d restarts, %d lost, %d evacuations (%d failed), MTTR max %.0fs",
		rec.Crashes, rec.Killed, rec.Restarts, rec.Lost, rec.Evacuations, rec.EvacFailures, rec.MTTRMax)
	if o.Verbose {
		rep.Notef("recovery snapshot %s", fleet.SnapshotDigest(rec.Snapshot))
	}
	return rep
}
