// Command paperbench is the repository's end-to-end benchmark: it runs fixed
// sets of the paper's experiments through the public harness API, serially
// in one process, checks every report byte for byte against a reference from
// the seed commit, and prints host-time metrics as one JSON line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash paperbench/run.sh --workload vm-latency --seed 42 --seconds 25 --trace 0
//	bash paperbench/run.sh --workload vm-latency --seed 42 --seconds 25 --trace 1
//	bash paperbench/run.sh --record
//
// --trace 0 prints the end-to-end metrics (wall_s, cpu_s, setup_s,
// peak_rss_mb); --trace 1 prints the per-layer metrics, taken from a
// runtime/pprof-profiled pass folded by module (fold.go) plus counts read
// from the harness's TrialResult and runtime.MemStats. --record re-records
// the reference digests for every workload and pooled seed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vsched/internal/experiments"
	"vsched/internal/harness"
)

// workload is a fixed list of experiments run at one scale. Why each was
// chosen is recorded in BENCHMARK.json and README.md.
type workload struct {
	name  string
	ids   []string
	scale float64
	// seeds is how many pooled seeds a run's passes cycle through. Host time
	// per pass depends on the inputs (up to 2x between seeds on fleet-micro),
	// so a run's median should cover as many as fit: the passes of a 25 s run
	// at the seed commit. A fixed count keeps the set of inputs the same
	// however many passes a faster program fits.
	seeds int
}

var workloads = []workload{
	{"vm-latency", []string{"fig14", "table3", "fig18"}, 0.1, 8},
	{"vm-throughput", []string{"fig13", "fig15"}, 0.02, 4},
	{"fleet-macro", []string{"fleetscale", "faulttol"}, 0.4, 4},
	{"fleet-micro", []string{"fleet", "fleetobs"}, 0.5, 12},
}

const (
	// trialTimeout bounds one experiment run; an overrun counts as failed.
	trialTimeout = 60 * time.Second
	// runDeadline stops starting new trials so the process ends well within
	// its 180 s budget even if the program under test slows down sharply.
	runDeadline = 120 * time.Second
	// setupProbes is how many fresh processes time the set-up.
	setupProbes = 21
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: vm-latency, vm-throughput, fleet-macro or fleet-micro")
		seed    = fs.Int64("seed", fullSeed, "workload seed; selects one of the recorded experiment seeds")
		seconds = fs.Float64("seconds", 25, "how long to measure")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled pass")
		scale   = fs.Float64("scale", 0, "experiment scale (0: the workload's own; 1 with seed 42 checks against experiments_full.txt)")
		record  = fs.Bool("record", false, "re-record reference digests for every workload and pooled seed")
		probe   = fs.Bool("setup-probe", false, "internal: set up, print the time set-up ended, exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if *record {
		if err := recordDigests(".", stderr); err != nil {
			fmt.Fprintln(stderr, "record:", err)
			return 1
		}
		return 0
	}

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "--trace must be 0 or 1")
		return 2
	}
	sc := w.scale
	if *scale > 0 {
		sc = *scale
	}
	// Digests are recorded at the workload's own scale only, so another
	// scale stays on one seed.
	nseeds := 1
	if sc == w.scale {
		nseeds = w.seeds
	}
	seeds := seedsFor(*seed, nseeds)
	refs, err := loadReferences(".", w.ids, seeds, sc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	runners := make([]experiments.Runner, len(w.ids))
	for i, id := range w.ids {
		runners[i], _ = experiments.ByID(id)
	}
	// Set-up ends here: the next step is the first Runner.Run.
	if *probe {
		fmt.Fprintln(stdout, time.Now().UnixNano())
		return 0
	}

	b := &bench{runners: runners, seeds: seeds, scale: sc, refs: refs, start: time.Now(), log: stderr}
	fmt.Fprintf(stderr, "paperbench: %s seed %d (experiment seeds from %d) scale %g, %gs, trace %d\n",
		w.name, *seed, seeds[0], sc, *seconds, *trace)

	var out result
	if *trace == 0 {
		setup, err := measureSetup(args, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		passes := b.measure(*seconds, nil)
		out = b.endToEnd(passes, setup)
	} else {
		untraced := b.measure(*seconds/2, nil)
		prof := newFolded()
		profiled := b.measure(*seconds/2, prof)
		if b.profileErr != nil {
			fmt.Fprintln(stderr, b.profileErr)
			return 1
		}
		out = b.perLayer(untraced, profiled, prof)
	}
	for _, e := range b.errs {
		fmt.Fprintln(stderr, "FAILED:", e)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench runs passes of one workload and keeps the failure ledger.
type bench struct {
	runners []experiments.Runner
	seeds   []int64 // pass i runs at seeds[i % len(seeds)]
	scale   float64
	refs    map[int64]*references
	start   time.Time
	log     io.Writer

	passes            int
	attempted, failed int
	errs              []string
	seedCounts        map[int64]map[string]float64 // each seed's first counts
	cycleRSS          float64                      // peak RSS once every seed ran, MB
	profileErr        error
}

// pass is one run of every experiment of the workload.
type pass struct {
	wall     time.Duration            // sum of spans
	cpu      time.Duration            // process user+sys CPU
	spans    map[string]time.Duration // wall per experiment id, around harness.Run
	cpuSpans map[string]time.Duration // process CPU per experiment id
	alloc    uint64                   // runtime.MemStats deltas
	mallocs  uint64
	gcs      uint32
	gcPause  time.Duration
	counts   map[string]float64
}

// measure runs passes until seconds have elapsed (at least one) and returns
// them. With prof set each pass is CPU-profiled and folded into it.
func (b *bench) measure(seconds float64, prof *folded) []pass {
	var passes []pass
	begin := time.Now()
	for len(passes) == 0 || time.Since(begin).Seconds() < seconds {
		p, ok := b.runPass(prof)
		if !ok {
			break
		}
		passes = append(passes, p)
	}
	return passes
}

func (b *bench) fail(msg string) {
	b.failed++
	b.errs = append(b.errs, msg)
}

// runPass runs the workload's experiments once, serially, timing each
// harness.Run call, and gates every report against its reference. With prof
// set the pass is CPU-profiled and folded into it. It returns false when the
// pass could not complete (run deadline, profiler).
func (b *bench) runPass(prof *folded) (pass, bool) {
	// Start each pass from a collected heap so one pass's garbage is not
	// charged to the next.
	runtime.GC()
	var profBuf bytes.Buffer
	if prof != nil {
		if err := pprof.StartCPUProfile(&profBuf); err != nil {
			b.profileErr = fmt.Errorf("cpu profile: %w", err)
			return pass{}, false
		}
	}
	seed := b.seeds[b.passes%len(b.seeds)]
	b.passes++
	p := pass{spans: map[string]time.Duration{}, cpuSpans: map[string]time.Duration{}, counts: map[string]float64{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	for _, r := range b.runners {
		if time.Since(b.start) > runDeadline {
			b.attempted++
			b.fail(fmt.Sprintf("%s: run deadline reached before the measurement ended", r.ID))
			if prof != nil {
				pprof.StopCPUProfile()
			}
			return pass{}, false
		}
		start, startCPU := time.Now(), cpuTime()
		res := harness.Run(harness.Config{
			Runners:  []experiments.Runner{r},
			BaseSeed: seed,
			Scale:    b.scale,
			Workers:  1,
			Timeout:  trialTimeout,
		})
		span := time.Since(start)
		p.cpuSpans[r.ID] = cpuTime() - startCPU
		p.spans[r.ID] = span
		p.wall += span
		t := &res.Experiments[0].Trials[0]
		b.attempted++
		if !t.OK() {
			b.fail(fmt.Sprintf("%s: %s", r.ID, t.Err))
			continue
		}
		if msg := b.refs[seed].check(r.ID, t.Report.String()); msg != "" {
			b.fail(msg)
		}
		addCounts(p.counts, t)
	}
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if prof != nil {
		pprof.StopCPUProfile()
		if err := foldProfile(profBuf.Bytes(), prof); err != nil {
			b.profileErr = err
		}
	}
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcs = ms1.NumGC - ms0.NumGC
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)

	// Simulated statistics are deterministic: every pass at a seed must
	// count exactly what the first pass at that seed counted.
	if b.seedCounts == nil {
		b.seedCounts = map[int64]map[string]float64{}
	}
	if first, ok := b.seedCounts[seed]; !ok {
		b.seedCounts[seed] = p.counts
	} else if !maps.Equal(first, p.counts) {
		b.fail(fmt.Sprintf("counts differ between passes at seed %d", seed))
	}
	if b.passes == len(b.seeds) {
		b.cycleRSS = peakRSSMB()
	}
	fmt.Fprintf(b.log, "paperbench: seed %d pass wall %.3fs cpu %.3fs profiled=%v\n", seed, p.wall.Seconds(), p.cpu.Seconds(), prof != nil)
	return p, true
}

// counters maps benchmark count names to the registry instrument each sums
// over every VM or fleet the trial tracked (TrialResult.Metrics keys are
// "<label>.<instrument>").
var counters = []struct{ name, instrument string }{
	{"guest.context_switches", "guest.context_switches"},
	{"guest.wakeups", "guest.wakeups"},
	{"guest.migrations", "guest.migrations"},
	{"guest.ipis", "guest.ipis"},
	{"guest.ticks", "guest.ticks"},
	{"core.bvs.calls", "vsched.bvs.calls"},
	{"core.bvs.hits", "vsched.bvs.hits"},
	{"core.ivh.attempts", "vsched.ivh.attempts"},
	{"core.ivh.migrated", "vsched.ivh.migrated"},
	{"fleet.macro.epochs", "fleet.macro.epochs"},
	{"fleet.macro.placed", "fleet.macro.placed"},
	{"fleet.macro.rejected", "fleet.macro.rejected"},
	{"fleet.macro.retry_queued", "fleet.macro.retry_queued"},
	{"fleet.macro.restarts", "fleet.macro.restarts"},
	{"fleet.macro.killed", "fleet.macro.killed"},
	{"fleet.macro.evacuations", "fleet.macro.evacuations"},
	{"fleet.macro.departed", "fleet.macro.departed"},
	{"fleet.placed", "fleet.placed"},
	{"fleet.migrations", "fleet.migrations"},
	{"fleet.departed", "fleet.departed"},
}

// addCounts adds one trial's deterministic counts into c.
func addCounts(c map[string]float64, t *harness.TrialResult) {
	c["sim.events"] += float64(t.Events)
	c["sim.engines"] += float64(t.Engines)
	for k, v := range t.Metrics {
		for _, ctr := range counters {
			if k == ctr.instrument || strings.HasSuffix(k, "."+ctr.instrument) {
				c[ctr.name] += v
			}
		}
	}
	for _, snap := range t.Telemetry {
		c["telemetry.samples"] += float64(snap.Samples)
		for _, s := range snap.Series {
			c["telemetry.bytes"] += float64(len(s.Raw))
		}
	}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// measureSetup times set-up as users pay it: from starting a fresh process
// (exec, runtime and package initialisation, flag parsing, loading the
// references) until the first Runner.Run would begin. It starts
// setupProbes processes one after another and returns the median.
func measureSetup(args []string, log io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	vals := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, append([]string{"-setup-probe"}, args...)...)
		cmd.Stderr = io.Discard
		start := time.Now()
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		end, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("setup probe output %q: %w", out, err)
		}
		vals = append(vals, float64(end-start.UnixNano())/1e9)
	}
	sort.Float64s(vals)
	fmt.Fprintf(log, "paperbench: setup probes min %.4fs median %.4fs max %.4fs\n", vals[0], median(vals), vals[len(vals)-1])
	return median(vals), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(passes []pass, f func(pass) float64) float64 {
	v := make([]float64, len(passes))
	for i, p := range passes {
		v[i] = f(p)
	}
	return median(v)
}

// recordDigests runs one pass of every workload at every pooled seed and
// writes the report digests to digestsFile. Run it only on a commit whose
// output is the reference.
func recordDigests(root string, log io.Writer) error {
	all := map[string]string{}
	for _, w := range workloads {
		for _, seed := range seedPool {
			for _, id := range w.ids {
				r, _ := experiments.ByID(id)
				res := harness.Run(harness.Config{
					Runners:  []experiments.Runner{r},
					BaseSeed: seed,
					Scale:    w.scale,
					Workers:  1,
				})
				t := &res.Experiments[0].Trials[0]
				if !t.OK() {
					return fmt.Errorf("%s seed %d: %s", id, seed, t.Err)
				}
				all[digestKey(id, seed, w.scale)] = digest(t.Report.String())
				fmt.Fprintf(log, "recorded %s seed %d (%v)\n", id, seed, t.WallTime.Round(time.Millisecond))
			}
		}
	}
	return writeDigests(root, all)
}
