package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"vsched/internal/experiments"
)

// The reference-output gate. A perf change must leave every simulated
// statistic identical, so each trial's report text is compared byte for byte
// with a reference from the seed commit: at seed 42 and scale 1 with the
// report's section of the checked-in experiments_full.txt, otherwise with a
// SHA-256 digest recorded in digestsFile.

const (
	fullRecordFile = "experiments_full.txt"
	digestsFile    = "paperbench/digests.json"
	fullSeed       = 42
)

// seedPool lists the experiment seeds with recorded digests. --seed picks
// where a run starts in the pool (seedFor), so every run's output can be
// checked. 42 is the tuning seed and 7 the held-out seed for later claims.
var seedPool = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 42}

// seedFor maps the benchmark's --seed to an experiment seed: a pool seed is
// used as is, any other seed selects a pool entry deterministically.
func seedFor(n int64) int64 {
	for _, s := range seedPool {
		if s == n {
			return n
		}
	}
	i := n % int64(len(seedPool))
	if i < 0 {
		i += int64(len(seedPool))
	}
	return seedPool[i]
}

// seedsFor lists the count experiment seeds a run's passes cycle through:
// seedFor(n) and the pool seeds after it.
func seedsFor(n int64, count int) []int64 {
	start := seedFor(n)
	for i, s := range seedPool {
		if s == start {
			seeds := make([]int64, count)
			for j := range seeds {
				seeds[j] = seedPool[(i+j)%len(seedPool)]
			}
			return seeds
		}
	}
	panic("seedFor returned a seed outside the pool")
}

// digestKey names one recorded report: experiment, seed and scale.
func digestKey(id string, seed int64, scale float64) string {
	return fmt.Sprintf("%s@seed=%d@scale=%s", id, seed, strconv.FormatFloat(scale, 'g', -1, 64))
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// references holds the expected report text (full record) or digest per
// experiment id for one (seed, scale).
type references struct {
	texts   map[string]string
	digests map[string]string
}

// check returns "" when report matches its reference, or why it does not.
func (r *references) check(id string, report string) string {
	if want, ok := r.texts[id]; ok {
		if report != want {
			return fmt.Sprintf("%s: report differs from its section of %s", id, fullRecordFile)
		}
		return ""
	}
	if want, ok := r.digests[id]; ok {
		if digest(report) != want {
			return fmt.Sprintf("%s: report digest differs from the recorded reference", id)
		}
		return ""
	}
	return fmt.Sprintf("%s: no reference recorded for this seed and scale", id)
}

// loadReferences reads, under root, the references for the given
// experiments at each seed.
func loadReferences(root string, ids []string, seeds []int64, scale float64) (map[int64]*references, error) {
	var sections, all map[string]string
	var err error
	if scale == 1 {
		if sections, err = readFullRecord(root); err != nil {
			return nil, err
		}
	}
	if all, err = readDigests(root); err != nil {
		return nil, err
	}
	out := map[int64]*references{}
	for _, seed := range seeds {
		refs := &references{texts: map[string]string{}, digests: map[string]string{}}
		for _, id := range ids {
			if s, ok := sections[id]; ok && seed == fullSeed {
				refs.texts[id] = s
			} else if d, ok := all[digestKey(id, seed, scale)]; ok {
				refs.digests[id] = d
			}
		}
		out[seed] = refs
	}
	return out, nil
}

func readFullRecord(root string) (map[string]string, error) {
	f, err := os.Open(filepath.Join(root, fullRecordFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return splitFullRecord(f)
}

// splitFullRecord cuts the output of `experiments -run all` into one
// section per experiment id. Each section is what Report.String() printed:
// from its "== <id>: ..." header up to the blank line separating reports.
func splitFullRecord(f *os.File) (map[string]string, error) {
	known := map[string]bool{}
	for _, r := range experiments.Registry() {
		known[r.ID] = true
	}
	sections := map[string]string{}
	var id string
	var b strings.Builder
	flush := func() {
		if id != "" {
			// Harness text adds one newline after each report.
			sections[id] = strings.TrimSuffix(b.String(), "\n")
		}
		b.Reset()
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "== ") {
			if i := strings.Index(line, ": "); i > 3 && known[line[3:i]] {
				flush()
				id = line[3:i]
			}
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	flush()
	return sections, sc.Err()
}

func readDigests(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, digestsFile))
	if err != nil {
		return nil, err
	}
	all := map[string]string{}
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsFile, err)
	}
	return all, nil
}

// writeDigests stores digests sorted by key, one per line, so re-recording
// shows as a readable diff.
func writeDigests(root string, all map[string]string) error {
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		fmt.Fprintf(&b, "  %s: %q", kb, all[k])
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return os.WriteFile(filepath.Join(root, digestsFile), []byte(b.String()), 0o644)
}
