package experiments

import (
	"bytes"
	"fmt"

	"vsched/internal/cloudgen"
	"vsched/internal/faults"
	"vsched/internal/fleet"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// scaledCloudConfig shrinks the default cloudgen trace for -scale < 1 with
// floors that keep the scenario meaningful: heterogeneous hosts, thousands
// of lifetimes, several diurnal-scale hours. Shared by the macro fleet
// experiments so all of them see the same fleet at a given scale.
func scaledCloudConfig(scale float64) cloudgen.Config {
	cfg := cloudgen.DefaultConfig()
	if scale <= 0 {
		scale = 1
	}
	if scale < 1 {
		if h := sim.Duration(float64(cfg.Horizon) * scale); h >= 3*cloudgen.Hour {
			cfg.Horizon = h
		} else {
			cfg.Horizon = 3 * cloudgen.Hour
		}
		if r := cfg.BaseRate * scale * 4; r < cfg.BaseRate {
			cfg.BaseRate = r
		}
		for i := range cfg.Hosts {
			if n := int(float64(cfg.Hosts[i].Count) * scale); n >= 2 {
				cfg.Hosts[i].Count = n
			} else {
				cfg.Hosts[i].Count = 2
			}
		}
	}
	return cfg
}

// faultedCloudConfig is scaledCloudConfig plus a scale-aware fault schedule:
// the MTBFs are derived from the fleet size and horizon so the run sees the
// given expected crash, brownout and stall counts at any -scale, keeping
// fault gates meaningful in shrunk configurations.
func faultedCloudConfig(scale, crashes, brownouts, stalls, migFailProb float64) cloudgen.Config {
	cfg := scaledCloudConfig(scale)
	hosts := 0
	for _, hc := range cfg.Hosts {
		hosts += hc.Count
	}
	// Expected event count for kind k is hosts * horizon / MTBF_k; fixing
	// the targets makes the MTBFs absorb the scale.
	mtbf := func(target float64) sim.Duration {
		return sim.Duration(float64(hosts) * float64(cfg.Horizon) / target)
	}
	cfg.Faults = &faults.Config{
		CrashMTBF:    mtbf(crashes),
		BrownoutMTBF: mtbf(brownouts),
		StallMTBF:    mtbf(stalls),
		MigFailProb:  migFailProb,
	}
	return cfg
}

// gateSerialSharded is the macro determinism gate: it panics unless the
// serial and sharded runs of one cell ended in byte-identical final state.
// exp prefixes the panic text, cell names the diverging cell.
func gateSerialSharded(exp, cell string, serial, sharded *fleet.MacroResult) {
	if !bytes.Equal(serial.Snapshot, sharded.Snapshot) {
		panic(fmt.Sprintf("%s: %s serial/sharded snapshots diverge: %s vs %s",
			exp, cell, fleet.SnapshotDigest(serial.Snapshot), fleet.SnapshotDigest(sharded.Snapshot)))
	}
}

// CloudScale pushes the fleet layer to cloud-provider dimensions (no paper
// counterpart; the paper's testbed stops at a handful of hosts). A cloudgen
// trace — heavy-tailed VM sizes, diurnal arrivals, bimodal lifetimes,
// heterogeneous host classes — drives the macro fleet simulator at full
// scale: 1024 hosts, ~115k VM arrivals, 48 hours of virtual time, per
// placement policy. Reported per policy:
//
//   - degree of imbalance (max-min)/avg of host utilization, mean and max
//     over epochs — the CloudSim load-balance metric;
//   - batch makespan (completion of the last batch VM);
//   - p95 per-VM steal fraction — the vSched-visible cost of bad placement;
//   - throughput accounting (placed / rejected / completed lifetimes).
//
// Every cell runs twice, serially and sharded across host-range goroutines,
// and panics unless the two final-state snapshots are byte-identical: the
// determinism gate that keeps the sharded fast path honest. The sharded run
// also carries a telemetry recorder, which must not perturb the bytes
// either.
func CloudScale(o Options) *Report {
	trace := cloudgen.Generate(o.Seed, scaledCloudConfig(o.Scale))

	tcfg := telemetry.Config{Interval: 60 * sim.Second}

	rep := &Report{
		ID:    "fleetscale",
		Title: "Cloud-scale placement: heavy-tailed diurnal trace on a heterogeneous fleet (macro)",
		Header: []string{"policy", "placed", "rejected", "lifetimes", "DI mean", "DI max",
			"makespan h", "p95 steal", "steal vCPU-h", "Mevents"},
	}
	rep.Notef("trace: %d hosts (%d threads), %d arrivals over %.0fh, seed %d",
		len(trace.Hosts), trace.TotalThreads(), len(trace.VMs), trace.Horizon.Seconds()/3600, o.Seed)

	policies := []fleet.Policy{fleet.FirstFit{}, fleet.LeastLoaded{}, fleet.StealAware{}}
	for _, pol := range policies {
		run := func(shards int, tc *telemetry.Config) *fleet.MacroResult {
			return fleet.RunMacro(fleet.MacroConfig{
				Trace:     trace,
				Policy:    pol,
				Epoch:     60 * sim.Second,
				Shards:    shards,
				Telemetry: tc,
				Observe:   func(e *sim.Engine) { o.Stats.Track(e) },
			})
		}
		serial := run(1, nil)
		sharded := run(8, &tcfg)
		// The determinism gate: host-range sharding (and the attached
		// recorder) must not move a single bit of final state.
		gateSerialSharded("fleetscale", pol.Name(), serial, sharded)
		r := sharded
		o.Stats.TrackRegistry("fleetscale."+r.Policy, r.Registry)
		o.Stats.TrackTelemetry("fleetscale."+r.Policy, r.Telemetry)
		rep.Add(r.Policy,
			fmt.Sprintf("%d", r.Placed),
			fmt.Sprintf("%d", r.Rejected),
			fmt.Sprintf("%d", r.Lifetimes),
			fmt.Sprintf("%.3f", r.DIMean),
			fmt.Sprintf("%.3f", r.DIMax),
			fmt.Sprintf("%.2f", r.Makespan.Sub(0).Seconds()/3600),
			fmt.Sprintf("%.4f", r.P95Steal),
			fmt.Sprintf("%.1f", r.TotalStealHours),
			fmt.Sprintf("%.1f", float64(r.Events)/1e6),
		)
		if o.Verbose {
			rep.Notef("%s: snapshot %s", r.Policy, fleet.SnapshotDigest(r.Snapshot))
		}
	}
	rep.Notef("determinism gate: serial == sharded final-state bytes for every policy")
	return rep
}
