package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"vsched/internal/cloudgen"
	"vsched/internal/faults"
	"vsched/internal/fleet"
	"vsched/internal/obshttp"
	"vsched/internal/sim"
	"vsched/internal/telemetry"
)

// ObsPlane is the live-observability determinism gate (no paper counterpart;
// it guards the ops plane this repo adds around the paper's experiments). The
// fleetscale workload — heterogeneous hosts, heavy-tailed arrivals, a
// deterministic fault schedule with recovery — runs twice:
//
//   - detached: no observer of any kind;
//   - observed: published into a real obshttp server bound to an ephemeral
//     TCP port, while an in-process client hammers /metrics and a second
//     client consumes the full NDJSON progress stream, both over real TCP,
//     concurrently with the simulation.
//
// Five gates panic on violation rather than merely reporting:
//
//  1. inertness — the final-state snapshot and the telemetry snapshot bytes
//     must be identical detached vs observed-under-scrape: observation is
//     inert by construction, not by best effort;
//  2. stream ledger — every epoch event and the terminal run_done must
//     conserve admitted == completed + lost + rejected + running + pending,
//     and run_done must equal the run's own result counters exactly;
//  3. stream reconciliation — events received by the consumer plus events
//     the bus dropped must equal events published: nothing is lost
//     unaccounted, nothing is duplicated;
//  4. event census — fault and recovery event counts on the stream must
//     match the result's crash/brownout/stall and restart counters;
//  5. exposition — the final /metrics scrape must carry the exact
//     vsched_metric line for fleet.macro.placed with the run's placed count.
//
// Reported: the usual throughput accounting plus the published-event census,
// all deterministic functions of (seed, scale) — wall-clock artifacts like
// the concurrent scrape count stay off stdout.
func ObsPlane(o Options) *Report {
	// Scale-aware MTBFs (as in faulttol) so the stream carries a meaningful
	// number of fault and recovery events at any -scale.
	trace := cloudgen.Generate(o.Seed, faultedCloudConfig(o.Scale, 24, 48, 72, 0))

	tcfg := telemetry.Config{Interval: 60 * sim.Second}
	mk := func() fleet.MacroConfig {
		return fleet.MacroConfig{
			Trace:     trace,
			Policy:    fleet.StealAware{},
			Epoch:     60 * sim.Second,
			Shards:    8,
			Faults:    trace.Faults,
			Recovery:  faults.RecoveryConfig{Enabled: true},
			Telemetry: &tcfg,
			Observe:   func(e *sim.Engine) { o.Stats.Track(e) },
		}
	}

	detached := fleet.RunMacro(mk())

	srv := obshttp.New(obshttp.Options{BusSize: 1 << 16, PollInterval: 2 * time.Millisecond})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("obsplane: bind: %v", err))
	}
	defer srv.Close()
	run := srv.Register("obsplane")

	stream := consumeEvents(addr, "obsplane")
	stopScrape := make(chan struct{})
	scrapeDone := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stopScrape:
				scrapeDone <- n
				return
			default:
			}
			if body, err := httpGet(addr, "/metrics"); err == nil && len(body) > 0 {
				n++
			}
		}
	}()

	ocfg := mk()
	ocfg.Obs = run.Publisher()
	ocfg.ObsLabel = "obsplane"
	observed := fleet.RunMacro(ocfg)
	run.Finish()

	sres := <-stream
	close(stopScrape)
	midScrapes := <-scrapeDone

	// Gate 1: inertness. The observed run, scraped throughout, must end in
	// the same final state and telemetry bytes as the detached one.
	if !bytes.Equal(detached.Snapshot, observed.Snapshot) {
		panic(fmt.Sprintf("obsplane: observation perturbed the simulation: %s vs %s",
			fleet.SnapshotDigest(detached.Snapshot), fleet.SnapshotDigest(observed.Snapshot)))
	}
	var dj, oj bytes.Buffer
	if err := detached.Telemetry.Snapshot(false).WriteJSON(&dj); err != nil {
		panic(fmt.Sprintf("obsplane: telemetry snapshot: %v", err))
	}
	if err := observed.Telemetry.Snapshot(false).WriteJSON(&oj); err != nil {
		panic(fmt.Sprintf("obsplane: telemetry snapshot: %v", err))
	}
	if !bytes.Equal(dj.Bytes(), oj.Bytes()) {
		panic("obsplane: observation perturbed the telemetry snapshot bytes")
	}

	// Gate 2: stream ledger. consumeEvents already checked per-epoch
	// conservation; here the terminal event must match the result exactly.
	if sres.err != "" {
		panic("obsplane: " + sres.err)
	}
	d := sres.runDone
	if d == nil {
		panic("obsplane: stream carried no run_done event")
	}
	if int(d.Completed) != observed.Lifetimes || int(d.Lost) != observed.Lost ||
		int(d.Rejected) != observed.Rejected || int(d.Running) != observed.RunningAtEnd ||
		int(d.Pending) != observed.PendingAtEnd {
		panic(fmt.Sprintf("obsplane: run_done %+v does not match result (lifetimes=%d lost=%d rejected=%d running=%d pending=%d)",
			*d, observed.Lifetimes, observed.Lost, observed.Rejected, observed.RunningAtEnd, observed.PendingAtEnd))
	}
	if d.Admitted != d.Completed+d.Lost+d.Rejected+d.Running+d.Pending {
		panic(fmt.Sprintf("obsplane: final stream ledger does not conserve: %+v", *d))
	}

	// Gate 3: stream reconciliation. received + dropped == published, and the
	// terminal record's own received count agrees with the consumer's tally.
	published := run.Publisher().Bus.Seq()
	if sres.end == nil {
		panic("obsplane: stream did not terminate with stream_end")
	}
	if sres.end.Received != sres.events || sres.end.Received+sres.end.Dropped != published {
		panic(fmt.Sprintf("obsplane: stream does not reconcile: received %d (consumer %d) + dropped %d != published %d",
			sres.end.Received, sres.events, sres.end.Dropped, published))
	}

	// Gate 4: event census vs result counters.
	wantFaults := observed.Crashes + observed.Brownouts + observed.Stalls
	if sres.end.Dropped == 0 {
		if sres.faults != wantFaults {
			panic(fmt.Sprintf("obsplane: %d fault events on stream, result applied %d", sres.faults, wantFaults))
		}
		if sres.recoveries != observed.Restarts {
			panic(fmt.Sprintf("obsplane: %d recovery events on stream, result restarted %d", sres.recoveries, observed.Restarts))
		}
	}

	// Gate 5: exposition. One more scrape after the run; it must carry the
	// exact sample line for the final placed counter.
	body, err := httpGet(addr, "/metrics")
	if err != nil {
		panic(fmt.Sprintf("obsplane: final scrape: %v", err))
	}
	wantLine := fmt.Sprintf("vsched_metric{run=\"obsplane\",name=\"fleet.macro.placed\"} %d\n", observed.Placed)
	if !strings.Contains(string(body), wantLine) {
		panic(fmt.Sprintf("obsplane: final /metrics scrape missing %q", strings.TrimSpace(wantLine)))
	}
	if srv.Scrapes() == 0 || midScrapes < 0 {
		panic("obsplane: scrape counter never moved")
	}

	o.Stats.TrackRegistry("obsplane", observed.Registry)
	o.Stats.TrackTelemetry("obsplane", observed.Telemetry)

	// Everything reported below is a deterministic function of (seed, scale):
	// epoch-event count derives from the published census, not wall clock.
	epochEvents := int(published) - 2 - wantFaults - observed.Restarts
	rep := &Report{
		ID:    "obsplane",
		Title: "Live ops plane: HTTP exposition and progress stream, inert by construction (macro)",
		Header: []string{"placed", "rejected", "lifetimes", "lost", "restarts",
			"epochs", "fault evs", "recov evs", "published"},
	}
	rep.Add(
		fmt.Sprintf("%d", observed.Placed),
		fmt.Sprintf("%d", observed.Rejected),
		fmt.Sprintf("%d", observed.Lifetimes),
		fmt.Sprintf("%d", observed.Lost),
		fmt.Sprintf("%d", observed.Restarts),
		fmt.Sprintf("%d", epochEvents),
		fmt.Sprintf("%d", wantFaults),
		fmt.Sprintf("%d", observed.Restarts),
		fmt.Sprintf("%d", published),
	)
	rep.Notef("trace: %d hosts, %d arrivals over %.0fh, %d fault events (seed %d)",
		len(trace.Hosts), len(trace.VMs), trace.Horizon.Seconds()/3600,
		len(trace.Faults.Events), o.Seed)
	rep.Notef("gates: detached == observed final-state and telemetry bytes under concurrent TCP scraping; " +
		"every streamed epoch conserves admitted == completed+lost+rejected+running+pending; " +
		"received+dropped == published; /metrics carries the exact final placed sample")
	if o.Verbose {
		rep.Notef("snapshot %s", fleet.SnapshotDigest(observed.Snapshot))
	}
	return rep
}

// streamResult is what the NDJSON consumer saw.
type streamResult struct {
	events     uint64 // wire events received (excludes drops/stream_end records)
	epochs     int
	faults     int
	recoveries int
	runDone    *wireRec
	end        *wireRec // the terminal stream_end record
	err        string
}

// wireRec decodes both progress.WireEvent lines and the stream's
// drops/stream_end envelopes — the field sets are disjoint except for kind.
type wireRec struct {
	Kind      string `json:"kind"`
	Label     string `json:"label"`
	Detail    string `json:"detail"`
	Epoch     int64  `json:"epoch"`
	Admitted  int64  `json:"admitted"`
	Completed int64  `json:"completed"`
	Lost      int64  `json:"lost"`
	Rejected  int64  `json:"rejected"`
	Running   int64  `json:"running"`
	Pending   int64  `json:"pending"`
	Dropped   uint64 `json:"dropped"`
	Received  uint64 `json:"received"`
}

// consumeEvents attaches an NDJSON client to /runs/{id}/events over real TCP
// and tallies the stream until it terminates. The per-epoch conservation
// check runs here, as each event arrives, so a violation is caught even if
// later events overwrite the evidence.
func consumeEvents(addr, id string) <-chan streamResult {
	ch := make(chan streamResult, 1)
	go func() {
		var res streamResult
		defer func() { ch <- res }()
		resp, err := http.Get("http://" + addr + "/runs/" + id + "/events")
		if err != nil {
			res.err = fmt.Sprintf("event stream: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			res.err = fmt.Sprintf("event stream: HTTP %d", resp.StatusCode)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var rec wireRec
			if err := json.Unmarshal(line, &rec); err != nil {
				res.err = fmt.Sprintf("event stream: bad line %q: %v", line, err)
				return
			}
			switch rec.Kind {
			case "stream_end":
				end := rec
				res.end = &end
				return
			case "drops":
				continue
			case "epoch":
				res.epochs++
				if rec.Admitted != rec.Completed+rec.Lost+rec.Rejected+rec.Running+rec.Pending {
					res.err = fmt.Sprintf("epoch %d on stream does not conserve: %+v", rec.Epoch, rec)
					return
				}
			case "fault":
				res.faults++
			case "recovery":
				res.recoveries++
			case "run_done":
				done := rec
				res.runDone = &done
			}
			res.events++
		}
		if res.err == "" {
			res.err = "event stream ended without stream_end"
		}
	}()
	return ch
}

// httpGet fetches one path from the in-process server and returns the body.
func httpGet(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
