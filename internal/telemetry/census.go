package telemetry

import (
	"vsched/internal/metrics"
	"vsched/internal/progress"
)

// census emits the recorder's own occupancy: how many series exist, how many
// sample passes ran, the compressed footprint, and where that sits against
// the provable MaxSeriesBytes bound. The values are pure functions of
// simulation state, so emitting them at a safepoint is deterministic.
func (r *Recorder) census(emit func(string, float64)) {
	bytes := float64(r.Bytes())
	maxBytes := float64(r.MaxBytes())
	occ := 0.0
	if maxBytes > 0 {
		occ = bytes / maxBytes
	}
	emit("telemetry.series", float64(r.Len()))
	emit("telemetry.samples", float64(r.Samples()))
	emit("telemetry.bytes", bytes)
	emit("telemetry.max_bytes", maxBytes)
	emit("telemetry.occupancy", occ)
}

// UpdateCensus writes the recorder's occupancy census into reg as
// first-class gauges, making the flight recorder's memory story visible in
// the registry it samples and in the artifact. Call it from a simulation
// safepoint (epoch boundary, per-second hook).
func (r *Recorder) UpdateCensus(reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	r.census(func(name string, v float64) { reg.Gauge(name).Set(v) })
}

// MirrorFill returns the progress.Mirror fill that publishes one run's
// observation state to /metrics scrapers: every registry value (FamMetric),
// the last sample of every deterministic series of rec (FamTelemetry), and
// the self-census (FamSelf) — self's wheel and tracer counts plus rec's
// occupancy census. rec may be nil. The fill reads only simulation state, so
// call PublishMirror with it from the simulation goroutine at a safepoint.
func MirrorFill(reg *metrics.Registry, rec *Recorder, self *SelfSource) func(add func(progress.Family, string, float64)) {
	return func(add func(progress.Family, string, float64)) {
		reg.VisitNumeric(func(name string, v float64) { add(progress.FamMetric, name, v) })
		addSelf := func(name string, v float64) { add(progress.FamSelf, name, v) }
		if rec != nil {
			for _, s := range rec.Series(false) {
				add(progress.FamTelemetry, s.Name, s.Last().V)
			}
			rec.census(addSelf)
		}
		self.Collect(self.Eng.Now(), addSelf)
	}
}
