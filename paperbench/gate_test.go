package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"vsched/internal/experiments"
	"vsched/internal/harness"
)

const repoRoot = ".."

func TestSplitFullRecordCoversTheFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, fullRecordFile))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(repoRoot, fullRecordFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sections, err := splitFullRecord(f)
	if err != nil {
		t.Fatal(err)
	}
	// Re-assembled in registry order the way harness Result.Text prints
	// them, the sections must give back the file byte for byte.
	var b strings.Builder
	for _, r := range experiments.Registry() {
		s, ok := sections[r.ID]
		if !ok {
			t.Fatalf("no section for %s", r.ID)
		}
		b.WriteString(s)
		b.WriteByte('\n')
	}
	if b.String() != string(data) {
		t.Error("sections do not reassemble into the full record")
	}
}

// trialReport runs one cheap experiment the way the benchmark does.
func trialReport(t *testing.T, id string, seed int64, scale float64) string {
	t.Helper()
	r, _ := experiments.ByID(id)
	res := harness.Run(harness.Config{Runners: []experiments.Runner{r}, BaseSeed: seed, Scale: scale, Workers: 1})
	tr := &res.Experiments[0].Trials[0]
	if !tr.OK() {
		t.Fatal(tr.Err)
	}
	return tr.Report.String()
}

// TestOneByteMutationCountsAsFailure shows that the gate counts a report that
// differs from its reference in a single byte as a failed trial, for both
// kinds of reference.
func TestOneByteMutationCountsAsFailure(t *testing.T) {
	const id, seed, scale = "fleetobs", 1, 0.1
	report := trialReport(t, id, seed, scale)
	mutated := []byte(report)
	mutated[len(mutated)/2] ^= 1

	r, _ := experiments.ByID(id)
	for _, c := range []struct {
		name   string
		refs   *references
		failed int
	}{
		{"digest", &references{digests: map[string]string{id: digest(report)}}, 0},
		{"digest mutated", &references{digests: map[string]string{id: digest(string(mutated))}}, 1},
		{"text", &references{texts: map[string]string{id: report}}, 0},
		{"text mutated", &references{texts: map[string]string{id: string(mutated)}}, 1},
		{"missing", &references{}, 1},
	} {
		b := &bench{runners: []experiments.Runner{r}, seeds: []int64{seed}, scale: scale,
			refs: map[int64]*references{seed: c.refs}, start: time.Now(), log: io.Discard}
		if _, ok := b.runPass(nil); !ok {
			t.Fatalf("%s: pass did not complete", c.name)
		}
		if b.attempted != 1 || b.failed != c.failed {
			t.Errorf("%s: attempted %d failed %d, want 1 and %d (%v)", c.name, b.attempted, b.failed, c.failed, b.errs)
		}
		out := b.perLayer(nil, nil, newFolded())
		if got, want := out.Metrics["failed_frac"].Value, float64(c.failed); got != want || out.Correct != (c.failed == 0) {
			t.Errorf("%s: failed_frac %v correct %v", c.name, got, out.Correct)
		}
	}
}

func TestRecordedDigestsCoverEveryWorkloadAndSeed(t *testing.T) {
	all, err := readDigests(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, s := range seedPool {
			for _, id := range w.ids {
				if _, ok := all[digestKey(id, s, w.scale)]; !ok {
					t.Errorf("no digest for %s", digestKey(id, s, w.scale))
				}
			}
		}
	}
}

func TestSeedFor(t *testing.T) {
	for _, s := range seedPool {
		if got := seedFor(s); got != s {
			t.Errorf("pool seed %d mapped to %d", s, got)
		}
	}
	inPool := map[int64]bool{}
	for _, s := range seedPool {
		inPool[s] = true
	}
	for _, n := range []int64{0, 21, 99, 123456789, -5} {
		if got := seedFor(n); !inPool[got] || got != seedFor(n) {
			t.Errorf("seed %d mapped to %d", n, got)
		}
		rot := seedsFor(n, 12)
		if len(rot) != 12 || rot[0] != seedFor(n) {
			t.Errorf("seed %d rotation %v", n, rot)
		}
		seen := map[int64]bool{}
		for _, s := range rot {
			seen[s] = inPool[s]
		}
		if len(seen) != 12 {
			t.Errorf("seed %d rotation %v repeats seeds", n, rot)
		}
	}
	if got := seedsFor(7, 1); len(got) != 1 || got[0] != 7 {
		t.Errorf("single seed %v", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the printed metric
// sets in step: names and units, for both trace modes.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", have, names)
	}
	b := &bench{seeds: []int64{fullSeed}}
	compare := func(mode string, got map[string]metric, want []struct{ Name, Unit string }) {
		seen := map[string]bool{}
		for _, m := range want {
			seen[m.Name] = true
			g, ok := got[m.Name]
			if !ok {
				t.Errorf("%s: %s listed but not printed", mode, m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("%s: %s unit %q, listed %q", mode, m.Name, g.Unit, m.Unit)
			}
		}
		var extra []string
		for n := range got {
			if !seen[n] {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s: printed but not listed: %v", mode, extra)
		}
	}
	compare("end_to_end", b.endToEnd(nil, 0).Metrics, spec.EndToEnd)
	compare("per_layer", b.perLayer(nil, nil, newFolded()).Metrics, spec.PerLayer)
}
