package telemetry

import (
	"slices"
	"strings"
	"testing"

	"vsched/internal/metrics"
	"vsched/internal/progress"
	"vsched/internal/sim"
	"vsched/internal/vtrace"
)

func TestRecorderCensusAppearsInFlatten(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := New(eng, Config{Interval: 10 * sim.Millisecond})
	rec.Record("demo.x", 1)
	rec.Record("demo.y", 2)
	rec.SampleNow()

	reg := metrics.NewRegistry()
	rec.UpdateCensus(reg)
	flat := reg.Snapshot().Flatten()
	if got := flat["telemetry.series"]; got != 2 {
		t.Fatalf("telemetry.series = %v, want 2", got)
	}
	if got := flat["telemetry.bytes"]; got <= 0 {
		t.Fatalf("telemetry.bytes = %v, want > 0", got)
	}
	if got := flat["telemetry.max_bytes"]; got != float64(2*MaxSeriesBytes(rec.cfg)) {
		t.Fatalf("telemetry.max_bytes = %v, want %d", got, 2*MaxSeriesBytes(rec.cfg))
	}
	occ := flat["telemetry.occupancy"]
	if occ <= 0 || occ > 1 {
		t.Fatalf("telemetry.occupancy = %v, want in (0, 1]", occ)
	}
	if occ != flat["telemetry.bytes"]/flat["telemetry.max_bytes"] {
		t.Fatalf("occupancy %v != bytes/max_bytes %v", occ, flat["telemetry.bytes"]/flat["telemetry.max_bytes"])
	}
	if _, ok := flat["telemetry.samples"]; !ok {
		t.Fatalf("telemetry.samples missing from Flatten: %v", flat)
	}
}

func TestRecorderCensusNilSafe(t *testing.T) {
	var rec *Recorder
	reg := metrics.NewRegistry()
	rec.UpdateCensus(reg) // must not panic
	if len(reg.Snapshot().Flatten()) != 0 {
		t.Fatalf("nil recorder wrote gauges")
	}
	eng := sim.NewEngine(1)
	New(eng, Config{}).UpdateCensus(nil) // must not panic
}

// collectSelf runs one SelfSource pass and returns what it emitted.
func collectSelf(s *SelfSource) map[string]float64 {
	out := map[string]float64{}
	s.Collect(s.Eng.Now(), func(name string, v float64) { out[name] = v })
	return out
}

func TestSelfSourceTracerCensus(t *testing.T) {
	tr := vtrace.New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(sim.Time(i), vtrace.KindEntityState, "vm0", 0, 1, 0)
	}
	got := collectSelf(&SelfSource{Eng: sim.NewEngine(1), Tracer: tr})
	if got["vtrace.emitted"] != 10 {
		t.Fatalf("vtrace.emitted = %v, want 10", got["vtrace.emitted"])
	}
	// Ring capacity 4, 10 emits: 6 overwritten.
	if got["vtrace.dropped"] != 6 {
		t.Fatalf("vtrace.dropped = %v, want 6", got["vtrace.dropped"])
	}
}

func TestSelfSourceNilTracer(t *testing.T) {
	got := collectSelf(&SelfSource{Eng: sim.NewEngine(1)})
	for name := range got {
		if strings.HasPrefix(name, "vtrace.") {
			t.Fatalf("nil tracer emitted %s", name)
		}
	}
	if _, ok := got["sim.fired"]; !ok {
		t.Fatalf("engine census missing: %v", got)
	}
}

// TestMirrorFillFamilies pins the one /metrics fill: FamSelf is exactly the
// engine census, plus the tracer pair when a tracer is set, plus the
// recorder's occupancy census when a recorder is set; every registry key is
// a FamMetric sample and every deterministic series a FamTelemetry one.
func TestMirrorFillFamilies(t *testing.T) {
	engine := []string{"sim.fired", "sim.pending", "sim.wheel.resident",
		"sim.wheel.level0", "sim.wheel.level1", "sim.wheel.level2",
		"sim.wheel.slots", "sim.wheel.overflow", "sim.wheel.ready", "sim.wheel.free"}
	tracer := []string{"vtrace.emitted", "vtrace.dropped"}
	recorder := []string{"telemetry.series", "telemetry.samples", "telemetry.bytes",
		"telemetry.max_bytes", "telemetry.occupancy"}
	for _, tc := range []struct {
		name           string
		tracer, record bool
		wantSelf       []string
	}{
		{"bare", false, false, engine},
		{"tracer", true, false, slices.Concat(engine, tracer)},
		{"recorder", false, true, slices.Concat(engine, recorder)},
		{"both", true, true, slices.Concat(engine, tracer, recorder)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			reg := metrics.NewRegistry()
			reg.Counter("demo.count").Add(3)
			reg.Gauge("demo.level").Set(0.5)
			reg.Histogram("demo.lat").Observe(7)
			self := &SelfSource{Eng: eng}
			if tc.tracer {
				self.Tracer = vtrace.New(4)
			}
			var rec *Recorder
			if tc.record {
				rec = New(eng, Config{Interval: 10 * sim.Millisecond})
				rec.AddSource("", RegistrySource(reg))
				rec.AddVolatileSource("", &WallSource{Eng: eng})
				rec.Start()
				eng.RunFor(50 * sim.Millisecond)
			}
			got := map[progress.Family]map[string]float64{}
			MirrorFill(reg, rec, self)(func(fam progress.Family, name string, v float64) {
				if got[fam] == nil {
					got[fam] = map[string]float64{}
				}
				if _, dup := got[fam][name]; dup {
					t.Fatalf("duplicate sample %d/%s", fam, name)
				}
				got[fam][name] = v
			})

			if len(got[progress.FamSelf]) != len(tc.wantSelf) {
				t.Fatalf("FamSelf %v, want exactly %v", got[progress.FamSelf], tc.wantSelf)
			}
			for _, name := range tc.wantSelf {
				if _, ok := got[progress.FamSelf][name]; !ok {
					t.Fatalf("FamSelf %v, want exactly %v", got[progress.FamSelf], tc.wantSelf)
				}
			}

			flat := reg.Snapshot().Flatten()
			if len(got[progress.FamMetric]) != len(flat) {
				t.Fatalf("FamMetric has %d samples, registry %d keys", len(got[progress.FamMetric]), len(flat))
			}
			for k, v := range flat {
				if mv, ok := got[progress.FamMetric][k]; !ok || mv != v {
					t.Fatalf("registry key %s = %v, FamMetric %v (present %v)", k, v, mv, ok)
				}
			}

			if !tc.record {
				if len(got[progress.FamTelemetry]) != 0 {
					t.Fatalf("FamTelemetry without a recorder: %v", got[progress.FamTelemetry])
				}
				return
			}
			series := rec.Series(false)
			if len(series) == 0 || len(got[progress.FamTelemetry]) != len(series) {
				t.Fatalf("FamTelemetry has %d samples, recorder %d deterministic series",
					len(got[progress.FamTelemetry]), len(series))
			}
			for _, s := range series {
				if v, ok := got[progress.FamTelemetry][s.Name]; !ok || v != s.Last().V {
					t.Fatalf("series %s last %v, FamTelemetry %v (present %v)", s.Name, s.Last().V, v, ok)
				}
			}
			census := metrics.NewRegistry()
			rec.UpdateCensus(census)
			for k, v := range census.Snapshot().Flatten() {
				if got[progress.FamSelf][k] != v {
					t.Fatalf("FamSelf %s = %v, UpdateCensus %v", k, got[progress.FamSelf][k], v)
				}
			}
		})
	}
}
