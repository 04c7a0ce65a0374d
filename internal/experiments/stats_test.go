package experiments

import (
	"maps"
	"reflect"
	"testing"

	"vsched/internal/metrics"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// TestStatsObserveLabels pins the one registration path: repeated labels
// get #2, #3, ...; everything registered in one call shares its label; an
// empty observation is a no-op that uses up no suffix; and Snapshot splits
// the observations into the three label-prefixed maps the artifact stores.
func TestStatsObserveLabels(t *testing.T) {
	reg := func(v uint64) *metrics.Registry {
		r := metrics.NewRegistry()
		r.Counter("c").Add(v)
		return r
	}
	rec := telemetry.New(sim.NewEngine(1), telemetry.Config{Interval: 10 * sim.Millisecond})
	rec.Record("x", 1)
	rec.SampleNow()

	s := &Stats{}
	s.Observe("vm", Observation{Registry: reg(1)})
	s.Observe("vm", Observation{})
	s.Observe("vm", Observation{Attribution: map[string]float64{}})
	s.Observe("vm", Observation{Registry: reg(2)})
	s.Observe("vm", Observation{Registry: reg(3), Telemetry: rec})
	s.Observe("vm", Observation{Attribution: map[string]float64{"share": 0.5}})
	s.Observe("other", Observation{Registry: metrics.NewRegistry()})

	m, a, tel := s.Snapshot()
	if want := map[string]float64{"vm.c": 1, "vm#2.c": 2, "vm#3.c": 3}; !maps.Equal(m, want) {
		t.Fatalf("metrics %v, want %v", m, want)
	}
	if want := map[string]float64{"vm#4.share": 0.5}; !maps.Equal(a, want) {
		t.Fatalf("attribution %v, want %v", a, want)
	}
	if len(tel) != 1 || !reflect.DeepEqual(tel["vm#3"], rec.Snapshot(false)) {
		t.Fatalf("got %d telemetry snapshots, want only the recorder's, under vm#3", len(tel))
	}

	// Nothing observed, or only empty registries: every map is nil.
	for _, s := range []*Stats{nil, {}} {
		s.Observe("vm", Observation{Registry: metrics.NewRegistry()})
		if m, a, tel := s.Snapshot(); m != nil || a != nil || tel != nil {
			t.Fatalf("empty observations snapshot to %v %v %v", m, a, tel)
		}
	}
}
