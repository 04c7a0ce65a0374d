package main

import (
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) result(m map[string]metric) result {
	return result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	}
}

// perExperiment sums, over the workload's experiments, the median over
// passes of each experiment's own span. A burst of interference from other
// tenants of the host (steal reached 9% of CPU time on the 2-vCPU VM the
// benchmark was tuned on) then moves one experiment's sample, not a whole
// pass.
func perExperiment(passes []pass, spans func(pass) map[string]time.Duration) float64 {
	var ids []string
	if len(passes) > 0 {
		for id := range spans(passes[0]) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	total := 0.0
	for _, id := range ids {
		total += medianOf(passes, func(p pass) float64 { return spans(p)[id].Seconds() })
	}
	return total
}

func wallSpans(p pass) map[string]time.Duration { return p.spans }

// endToEnd reports the untraced passes: host wall and CPU time of the
// workload's experiments (perExperiment), the set-up time, and the process's
// peak memory once every seed of the cycle has run (later passes would make
// the peak depend on how many passes fit).
func (b *bench) endToEnd(passes []pass, setup float64) result {
	rss := b.cycleRSS
	if rss == 0 {
		rss = peakRSSMB()
	}
	return b.result(map[string]metric{
		"wall_s":      {perExperiment(passes, wallSpans), "s"},
		"cpu_s":       {perExperiment(passes, func(p pass) map[string]time.Duration { return p.cpuSpans }), "s"},
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {rss, "MB"},
	})
}

// allExperimentIDs lists every experiment of every workload, so the
// per-layer metric set is the same on each workload (0 where not run).
func allExperimentIDs() []string {
	var ids []string
	for _, w := range workloads {
		ids = append(ids, w.ids...)
	}
	return ids
}

// perLayer reports module self time per pass from the profiled passes,
// deterministic counts from the run's first seed, and timings, rates and
// runtime.MemStats deltas as medians over the untraced passes.
func (b *bench) perLayer(untraced, profiled []pass, prof *folded) result {
	m := map[string]metric{}
	perPass := func(ns int64) float64 {
		return ratio(float64(ns), float64(len(profiled))) / 1e9
	}
	for _, mod := range layerModules {
		m[mod+".cpu_s"] = metric{perPass(prof.buckets[mod]), "s"}
	}
	for _, sb := range subBuckets {
		m[sb.name+".cpu_s"] = metric{perPass(prof.subs[sb.name]), "s"}
	}
	m[bucketAlloc+".cpu_s"] = metric{perPass(prof.buckets[bucketAlloc]), "s"}
	m[bucketGC+".cpu_s"] = metric{perPass(prof.buckets[bucketGC]), "s"}
	m[bucketOther+".cpu_s"] = metric{perPass(prof.buckets[bucketOther]), "s"}
	m["bench.sampled_cpu_s"] = metric{perPass(prof.total), "s"}

	c := b.seedCounts[b.seeds[0]]
	for _, name := range []string{
		"sim.events", "sim.engines",
		"guest.context_switches", "guest.wakeups", "guest.migrations", "guest.ipis", "guest.ticks",
		"core.bvs.calls", "core.ivh.attempts",
		"fleet.macro.epochs", "fleet.macro.placed", "fleet.macro.rejected", "fleet.macro.retry_queued",
		"fleet.macro.restarts", "fleet.macro.killed", "fleet.macro.evacuations",
		"fleet.placed", "fleet.migrations",
		"telemetry.bytes", "telemetry.samples",
	} {
		m[name] = metric{c[name], "count"}
	}
	m["core.bvs.hit_ratio"] = metric{ratio(c["core.bvs.hits"], c["core.bvs.calls"]), "ratio"}
	m["core.ivh.success_ratio"] = metric{ratio(c["core.ivh.migrated"], c["core.ivh.attempts"]), "ratio"}
	m["fleet.macro.restart_ratio"] = metric{ratio(c["fleet.macro.restarts"], c["fleet.macro.killed"]), "ratio"}
	lifetimes := func(c map[string]float64) float64 { return c["fleet.departed"] + c["fleet.macro.departed"] }
	m["fleet.lifetimes"] = metric{lifetimes(c), "count"}

	// Rates divide each pass's own counts by its own time, so the median
	// does not mix seeds.
	wall := perExperiment(untraced, wallSpans)
	m["vm_lifetimes_per_s"] = metric{medianOf(untraced, func(p pass) float64 {
		return ratio(lifetimes(p.counts), p.wall.Seconds())
	}), "1/s"}
	m["sim.ns_per_event"] = metric{medianOf(untraced, func(p pass) float64 {
		return ratio(float64(p.wall.Nanoseconds()), p.counts["sim.events"])
	}), "ns"}
	for _, id := range allExperimentIDs() {
		m["exp."+id+".wall_s"] = metric{medianOf(untraced, func(p pass) float64 { return p.spans[id].Seconds() }), "s"}
	}
	m["runtime.alloc_bytes"] = metric{medianOf(untraced, func(p pass) float64 { return float64(p.alloc) }), "B"}
	m["runtime.mallocs"] = metric{medianOf(untraced, func(p pass) float64 { return float64(p.mallocs) }), "count"}
	m["runtime.allocs_per_event"] = metric{medianOf(untraced, func(p pass) float64 {
		return ratio(float64(p.mallocs), p.counts["sim.events"])
	}), "ratio"}
	m["runtime.gc_cycles"] = metric{medianOf(untraced, func(p pass) float64 { return float64(p.gcs) }), "count"}
	m["runtime.gc_pause_s"] = metric{medianOf(untraced, func(p pass) float64 { return p.gcPause.Seconds() }), "s"}

	m["bench.trace_overhead_frac"] = metric{ratio(perExperiment(profiled, wallSpans), wall) - 1, "ratio"}
	m["bench.untraced_wall_s"] = metric{wall, "s"}
	m["failed_frac"] = metric{ratio(float64(b.failed), float64(b.attempted)), "ratio"}
	return b.result(m)
}

// ratio is a/base, or 0 when the base is 0 (the base is reported beside it).
func ratio(a, base float64) float64 {
	if base == 0 {
		return 0
	}
	return a / base
}
