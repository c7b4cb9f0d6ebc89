// Command perfbench is the HyperEar service benchmark. It renders a
// seeded mix of simulated sessions, starts internal/server in-process
// with the configuration cmd/hyperearservd builds from its default
// flags, drives it over loopback HTTP from at most nproc client
// goroutines, checks every answer against a direct core.Localizer
// call, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced pass through each layer's public
// functions). The last line of standard output is one JSON object.
//
//	bash perfbench/run.sh --workload locate-paced --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --selftest
//
// See perfbench/README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"hyperear/internal/obs"
	"hyperear/internal/server"
	"hyperear/internal/sessionstore"
)

// Run design.
const (
	// segments is how many fresh servers one run measures, each for an
	// equal share of --seconds; the end-to-end metrics pool the segments'
	// samples and setup_s is the median of their set-ups. A server keeps
	// one throughput level for its lifetime (with both cores busy at the
	// default BatchWindow, sixteen 4 s segments read 17–24 locates/s
	// while 2 s windows inside a segment agree within about 10 %), so
	// pooling several servers is what makes a run repeatable. Eight, not
	// more, because each adds a set-up and a warm-up (about 1.4 s) to
	// every run's wall time.
	segments = 8
	// warmup is the untimed load phase between each set-up and its
	// measured segment: it lets GC pacing, connection reuse, sample
	// pools and the batch correlator reach their steady state.
	warmup = 500 * time.Millisecond
)

// metric is one named, unit-carrying output value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics and layerMetrics name every metric a run prints, with its
// unit; BENCHMARK.json lists the same names (the self-test checks).
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"locate_rate", "1/s"},
	{"locate_p50_ms", "ms"},
	{"locate_p90_ms", "ms"},
	{"chunk_p50_ms", "ms"},
	{"chunk_p90_ms", "ms"},
	{"ingest_rate", "audio-s/s"},
}

var layerMetrics = []struct{ name, unit string }{
	{"sessionio.decode_ms", "ms"},
	{"core.locate_ms", "ms"},
	{"core.asp_ms", "ms"},
	{"core.msp_us", "us"},
	{"core.pde_us", "us"},
	{"core.ttl_us", "us"},
	{"core.accounted_pct", "%"},
	{"core.error_p50_cm", "cm"},
	{"core.error_p90_cm", "cm"},
	{"chirp.detect_ms", "ms"},
	{"chirp.push_us", "us"},
	{"chirp.push_p99_us", "us"},
	{"dsp.correlate_ms", "ms"},
	{"dsp.envelope_ms", "ms"},
	{"dsp.fft_us", "us"},
	{"dsp.blocks", "count"},
	{"sessionstore.append_us", "us"},
	{"sessionstore.fsyncs", "count"},
	{"sessionstore.wal_bytes", "bytes"},
	{"sessionstore.snapshots", "count"},
	{"server.overhead_ms", "ms"},
	{"server.heap_peak_mb", "MB"},
	{"server.alloc_kb_per_audio_s", "KB"},
	{"server.completed", "count"},
	{"server.shed", "count"},
	{"server.canceled", "count"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.late_p95_ms", "ms"},
	{"loadgen.redrawn_sessions", "count"},
	{"trace.overhead_pct", "%"},
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts is one invocation's configuration.
type opts struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
	warmup   time.Duration
	clients  int
	out      *strings.Builder // the human-readable report
}

func main() {
	os.Exit(run())
}

func run() int {
	var o opts
	var trace int
	var selftest bool
	flag.StringVar(&o.root, "root", ".", "repository checkout the benchmark runs in (build outputs go to <root>/.bench_build)")
	flag.StringVar(&o.workload, "workload", "", "locate-paced or stream-wal")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the session mix and every schedule derive from it")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass after the load and prints per-layer metrics")
	flag.BoolVar(&selftest, "selftest", false, "run every workload briefly and check the metric set and the correctness gate")
	flag.Parse()
	o.clients = runtime.NumCPU()
	o.warmup = warmup
	o.out = &strings.Builder{}
	if selftest {
		return runSelftest(o)
	}
	switch {
	case o.workload != wlPaced && o.workload != wlStream:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want %s or %s)\n", o.workload, wlPaced, wlStream)
		return 2
	case o.seconds < 1:
		fmt.Fprintf(os.Stderr, "perfbench: -seconds %d < 1\n", o.seconds)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: -trace %d (want 0 or 1)\n", trace)
		return 2
	}
	o.trace = trace == 1
	mix, redrawn, prepS, err := prepare(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := bench(context.Background(), o, mix, redrawn, nil)
	fmt.Fprintf(o.out, "# inputs prepared and referenced in %.2fs\n", prepS)
	fmt.Print(o.out.String())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// host fingerprints the machine: results from different fingerprints are
// not comparable.
func host() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// maxRedraws bounds how many redraws one seed's mix may take in all.
const maxRedraws = 20

// prepare renders the seed's session mix and computes every reference
// answer with direct core.Localizer calls. A session the program cannot
// answer with a fix — the pipeline finds none (422), or the fix has a
// field JSON cannot carry, so the server sends 200 with an empty body —
// would make every run on the seed fail. Its slot is redrawn with new
// continuous draws and the same strata, from a generator the seed
// fixes; each redraw is reported with its reason, and the count is
// returned (per-layer loadgen.redrawn_sessions).
func prepare(o opts) (mix []*session, redrawn int, secs float64, err error) {
	t0 := time.Now()
	specs := drawMix(o.seed)
	if mix, err = renderMix(specs, o.clients); err != nil {
		return nil, 0, 0, err
	}
	locs := newLocalizers(daemonConfig())
	rng := rand.New(rand.NewSource(o.seed ^ 0x7edd))
	for i := range mix {
		for {
			if err := reference(context.Background(), locs, mix[i]); err != nil {
				return nil, 0, 0, err
			}
			why := mix[i].unanswerable()
			if why == "" {
				break
			}
			fmt.Fprintf(o.out, "# redrawn: %s: %s\n", mix[i].label, why)
			if redrawn++; redrawn > maxRedraws {
				return nil, 0, 0, fmt.Errorf("seed %d: more than %d sessions redrawn", o.seed, maxRedraws)
			}
			specs[i] = drawFree(rng, specs[i])
			if mix[i], err = render(i, specs[i]); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	return mix, redrawn, time.Since(t0).Seconds(), nil
}

// bench runs one workload over a prepared mix: set-up (repeated), warm-up
// and the measured phase, then the traced pass when o.trace is set.
// wantOverride replaces the reference answers (the self-test's perturbed
// gate). The returned result is non-nil whenever load ran; err reports
// why a run is not correct.
func bench(ctx context.Context, o opts, mix []*session, redrawn int, wantOverride func(*session) answer) (*result, error) {
	tmpRoot := filepath.Join(o.root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	withStore := o.workload == wlStream
	fmt.Fprintf(o.out, "# host %s\n", host())
	fmt.Fprintf(o.out, "# workload %s seed %d seconds %d clients %d trace %v\n", o.workload, o.seed, o.seconds, o.clients, o.trace)
	for _, s := range mix {
		fmt.Fprintf(o.out, "#   session %s audio %.1fs status %d error %.1fcm\n", s.label, s.audioS, s.wantCode, s.errCM)
	}

	// Each segment: set-up (start a daemon-equivalent server and warm it
	// with one locate of every session, building each phone profile's
	// localizer in the cache batch and session locates share, plus, with
	// a store, the first second of one streaming session), warm-up, and
	// one measured share. Warming with the whole mix keeps the set-up
	// work the same for every seed.
	var svc *service
	defer func() {
		if svc != nil {
			svc.stop()
		}
	}()
	var d *loadgen
	var setups, heapMBs, rates []float64
	var alloc, gcs uint64
	meas := newTally()
	// counters sums the server's counters over the measured segments.
	counters := obs.Snapshot{Counters: map[string]uint64{}}
	acct := &accounting{}
	segDur := time.Duration(o.seconds) * time.Second / segments
	for k := 1; k <= segments; k++ {
		if svc != nil {
			err := svc.stop()
			svc = nil
			if err != nil {
				return nil, fmt.Errorf("stopping segment server: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		svc, err = startService(daemonConfig(), withStore, tmpRoot, o.clients)
		if err != nil {
			return nil, err
		}
		d = &loadgen{svc: svc, mix: mix, workers: o.clients, want: wantOverride}
		setup := newTally()
		for _, s := range mix {
			d.locateOnce(ctx, setup, s, time.Now())
		}
		if withStore {
			d.streamOnce(ctx, setup, mix[0], int(1/chunkSeconds))
		}
		setups = append(setups, time.Since(t0).Seconds())
		acct.add(fmt.Sprintf("setup %d", k), setup, nil, nil)

		before, err := svc.counters()
		if err != nil {
			return nil, err
		}
		warm := d.run(ctx, o.workload, o.warmup, rng)
		mid, err := svc.counters()
		if err != nil {
			return nil, err
		}
		acct.add(fmt.Sprintf("warm-up %d", k), warm, &before, &mid)

		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		heap := startHeapSampler(10 * time.Millisecond)
		seg := d.run(ctx, o.workload, segDur, rng)
		heapMBs = append(heapMBs, heap.stop()/(1<<20))
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		after, err := svc.counters()
		if err != nil {
			return nil, err
		}
		acct.add(fmt.Sprintf("measured %d", k), seg, &mid, &after)
		if err := acct.check(svc); err != nil {
			acct.failures = append(acct.failures, err.Error())
		}
		for name, v := range after.Counters {
			counters.Counters[name] += v - mid.Counters[name]
		}
		rates = append(rates, float64(seg.locates)/seg.secs)
		meas.merge(seg)
	}
	fmt.Fprintf(o.out, "# gc: %d cycles, %.1f MB allocated over the measured segments\n", gcs, float64(alloc)/(1<<20))
	acct.report(o.out)

	res := &result{
		Correct:   len(acct.failures) == 0,
		Attempted: meas.sent,
		Failed:    meas.failed,
		Metrics:   map[string]metric{},
	}
	e2e := map[string]float64{
		"setup_s":       median(setups),
		"locate_rate":   float64(meas.locates) / meas.secs,
		"locate_p50_ms": quantile(meas.locateMS, 0.50),
		"locate_p90_ms": quantile(meas.locateMS, 0.90),
		"chunk_p50_ms":  quantile(meas.chunkMS, 0.50),
		"chunk_p90_ms":  quantile(meas.chunkMS, 0.90),
		"ingest_rate":   meas.audioS / meas.secs,
	}
	heapMB := median(heapMBs)
	allocKB := float64(alloc) / 1024 / meas.audioS
	errs := errorsCM(mix)
	fmt.Fprintf(o.out, "# setup_s runs %v\n", setups)
	fmt.Fprintf(o.out, "# locates/s per segment: %v\n", rates)
	fmt.Fprintf(o.out, "# samples: locates %d, chunks %d, measured %.2fs\n", len(meas.locateMS), len(meas.chunkMS), meas.secs)
	fmt.Fprintf(o.out, "# accuracy (reference fixes, once per distinct session): error_p50_cm %.2f error_p90_cm %.2f over %d fixes\n",
		quantile(errs, 0.5), quantile(errs, 0.9), len(errs))
	fmt.Fprintf(o.out, "# chunk percentiles over %d uploads: p75 %.3f p80 %.3f p85 %.3f p90 %.3f p95 %.3f p99 %.3f ms\n", len(meas.chunkMS),
		quantile(meas.chunkMS, 0.75), quantile(meas.chunkMS, 0.8), quantile(meas.chunkMS, 0.85), quantile(meas.chunkMS, 0.9), quantile(meas.chunkMS, 0.95), quantile(meas.chunkMS, 0.99))
	fmt.Fprintf(o.out, "# fail_ratio %.4f (%d of %d)\n", float64(meas.failed)/math.Max(1, float64(meas.sent)), meas.failed, meas.sent)
	fmt.Fprintf(o.out, "# heap_peak_mb %.1f, alloc_kb_per_audio_s %.1f\n", heapMB, allocKB)
	for _, m := range e2eMetrics {
		fmt.Fprintf(o.out, "# %-14s %12.4f %s\n", m.name, e2e[m.name], m.unit)
	}
	if !o.trace {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		if !res.Correct {
			return res, errors.New("correctness gate or run accounting failed")
		}
		return res, nil
	}

	layers, err := tracedPass(ctx, o, d, mix, meas, counters)
	if err != nil {
		res.Correct = false
		return res, err
	}
	layers["loadgen.redrawn_sessions"] = float64(redrawn)
	layers["server.heap_peak_mb"] = heapMB
	layers["server.alloc_kb_per_audio_s"] = allocKB
	for _, m := range layerMetrics {
		v, ok := layers[m.name]
		if !ok {
			res.Correct = false
			return res, fmt.Errorf("per-layer metric %s not computed", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Fprintf(o.out, "# %-24s %14.4f %s\n", m.name, v, m.unit)
	}
	if !res.Correct {
		return res, errors.New("correctness gate or run accounting failed")
	}
	return res, nil
}

// warmSessions picks the shortest session of each phone profile, so
// the traced pass's rig builds every localizer the mix needs before it
// is timed.
func warmSessions(mix []*session) []*session {
	best := map[string]*session{}
	var names []string
	for _, s := range mix {
		b, ok := best[s.phone.Name]
		if !ok {
			names = append(names, s.phone.Name)
		}
		if !ok || s.audioS < b.audioS {
			best[s.phone.Name] = s
		}
	}
	sort.Strings(names)
	out := make([]*session, 0, len(names))
	for _, n := range names {
		out = append(out, best[n])
	}
	return out
}

// errorsCM returns the reference fix errors of the sessions that have one.
func errorsCM(mix []*session) []float64 {
	var out []float64
	for _, s := range mix {
		if !math.IsNaN(s.errCM) {
			out = append(out, s.errCM)
		}
	}
	return out
}

// tracedPass computes the per-layer metrics: the traced layer pass (and
// its span-off twin for the overhead), with d's idle server as the HTTP
// probe, plus the server counters summed over the measured segments it
// follows.
func tracedPass(ctx context.Context, o opts, d *loadgen, mix []*session, meas *tally, counters obs.Snapshot) (map[string]float64, error) {
	dir, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build", "tmp"), "layer-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := sessionstore.Open(dir, sessionstore.Options{Fsync: walFsync, FsyncInterval: walFsyncInterval})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rig := newLayerRig(daemonConfig(), st)
	// Untimed first requests: build the rig's localizers, detectors and
	// stream state so neither timed pass pays for them.
	if _, err := rig.pass(ctx, warmSessions(mix), d, false); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := rig.pass(ctx, mix, d, false); err != nil {
		return nil, err
	}
	plain := time.Since(t0).Seconds()
	t1 := time.Now()
	tr, err := rig.pass(ctx, mix, d, true)
	if err != nil {
		return nil, err
	}
	traced := time.Since(t1).Seconds()
	spanFile := filepath.Join(o.root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "# %d spans written to %s\n", len(tr.spans), spanFile)

	self := tr.selfTimes()
	const msNS, usNS = 1e6, 1e3
	v := map[string]float64{}
	v["sessionio.decode_ms"] = median(perRequest(self, "sessionio.decode", msNS))
	v["core.locate_ms"] = median(perRequest(self, "core.locate", msNS))
	v["core.asp_ms"] = median(perRequest(self, "core.asp", msNS))
	v["core.msp_us"] = median(perRequest(self, "core.msp", usNS))
	v["core.pde_us"] = median(perRequest(self, "core.pde", usNS))
	v["core.ttl_us"] = median(perRequest(self, "core.ttl", usNS))
	// The stage spans' self times set against the black-box locate,
	// summed over the whole pass.
	var stages, locate float64
	for _, name := range []string{"core.asp", "core.msp", "core.pde", "core.ttl"} {
		stages += sum(perRequest(self, name, 1))
	}
	locate = sum(perRequest(self, "core.locate", 1))
	v["core.accounted_pct"] = 100 * stages / locate
	errs := errorsCM(mix)
	v["core.error_p50_cm"] = quantile(errs, 0.5)
	v["core.error_p90_cm"] = quantile(errs, 0.9)
	v["chirp.detect_ms"] = median(scale(tr.durations("chirp.detect"), msNS))
	pushes := scale(tr.durations("chirp.push"), usNS)
	v["chirp.push_us"] = mean(pushes)
	v["chirp.push_p99_us"] = quantile(pushes, 0.99)
	v["dsp.correlate_ms"] = median(scale(tr.durations("dsp.correlate"), msNS))
	v["dsp.envelope_ms"] = median(scale(tr.durations("dsp.envelope"), msNS))
	v["dsp.fft_us"] = median(scale(tr.durations("dsp.fft"), usNS))
	var blocks []float64
	for _, s := range mix {
		n, err := rig.blocksPerChannel(s)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, float64(n))
	}
	// The lower median: one session's exact count, not an average of two.
	sort.Float64s(blocks)
	v["dsp.blocks"] = blocks[(len(blocks)-1)/2]
	v["sessionstore.append_us"] = median(scale(tr.durations("sessionstore.append"), usNS))
	v["sessionstore.fsyncs"] = float64(counters.Counters[sessionstore.MFsyncs])
	v["sessionstore.wal_bytes"] = float64(counters.Counters[sessionstore.MAppendBytes])
	v["sessionstore.snapshots"] = float64(counters.Counters[sessionstore.MSnapshots])
	// Per request: the idle server's HTTP locate minus the decode and
	// pipeline time of the same bundle.
	var over []float64
	for req := range mix {
		over = append(over, (self["server.request"][req]-self["sessionio.decode"][req]-self["core.locate"][req])/msNS)
	}
	v["server.overhead_ms"] = median(over)
	v["server.completed"] = float64(counters.Counters[server.MReqCompleted])
	v["server.shed"] = float64(prefixDelta(obs.Snapshot{}, counters, server.MReqShedPrefix))
	v["server.canceled"] = float64(counters.Counters[server.MReqCanceled])
	v["loadgen.sent"] = float64(meas.sent)
	v["loadgen.failed"] = float64(meas.failed)
	v["loadgen.late_p95_ms"] = 0 // closed loops have no schedule to fall behind
	if len(meas.lateMS) > 0 {
		v["loadgen.late_p95_ms"] = quantile(meas.lateMS, 0.95)
	}
	v["trace.overhead_pct"] = 100 * (traced - plain) / plain
	return v, nil
}

// --- run accounting ---

// accounting collects each phase's client-side counts and checks them
// against the server's own /metrics counters.
type accounting struct {
	lines    []string
	failures []string
}

func (a *accounting) add(phase string, t *tally, before, after *obs.Snapshot) {
	codes := make([]int, 0, len(t.status))
	for c := range t.status {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	var parts []string
	for _, c := range codes {
		parts = append(parts, fmt.Sprintf("%d:%d", c, t.status[c]))
	}
	a.lines = append(a.lines, fmt.Sprintf("# %-8s sent %d succeeded %d failed %d by status {%s}",
		phase, t.sent, t.ok, t.failed, strings.Join(parts, " ")))
	for _, m := range t.mismatches {
		a.failures = append(a.failures, fmt.Sprintf("%s: answer mismatch: %s", phase, m))
	}
	if before == nil {
		return
	}
	check := func(what string, server, client uint64) {
		if server != client {
			a.failures = append(a.failures, fmt.Sprintf("%s: %s: server counted %d, load generator %d", phase, what, server, client))
		}
	}
	check(server.MReqCompleted, counterDelta(*before, *after, server.MReqCompleted), uint64(t.locateAnswered))
	check(server.MReqShedPrefix+"* + "+server.MReqCanceled,
		prefixDelta(*before, *after, server.MReqShedPrefix)+counterDelta(*before, *after, server.MReqCanceled),
		uint64(t.locateShed+t.locateCanceled))
	check(server.MReqAdmitted, counterDelta(*before, *after, server.MReqAdmitted),
		uint64(t.locateAnswered)+counterDelta(*before, *after, server.MReqCanceled))
	check(server.MSessCreated, counterDelta(*before, *after, server.MSessCreated), uint64(t.created))
	check(server.MSessEvictedPrefix+server.EvictExplicit,
		counterDelta(*before, *after, server.MSessEvictedPrefix+server.EvictExplicit), uint64(t.deleted))
	var requests uint64
	for c, n := range t.status {
		if c != 0 {
			requests += uint64(n)
		}
	}
	check(server.MReqDuration+" count",
		after.Histograms[server.MReqDuration].Count-before.Histograms[server.MReqDuration].Count, requests)
}

// check confirms the server holds no session and no admitted request
// once the load generator is done.
func (a *accounting) check(svc *service) error {
	snap, err := svc.counters()
	if err != nil {
		return err
	}
	if n := snap.Gauges[server.GSessionsActive].Value; n != 0 {
		return fmt.Errorf("%d sessions still active after the run", n)
	}
	if n := snap.Gauges[server.GQueueDepth].Value; n != 0 {
		return fmt.Errorf("%d requests still admitted after the run", n)
	}
	return nil
}

func (a *accounting) report(w *strings.Builder) {
	for _, l := range a.lines {
		fmt.Fprintln(w, l)
	}
	for _, f := range a.failures {
		fmt.Fprintln(w, "# FAIL", f)
	}
}

// --- heap sampling ---

type heapSampler struct {
	quit chan struct{}
	done chan float64
}

// startHeapSampler samples the GC's heap goal every interval until stop,
// which reports the median sample. The goal is the heap size the
// collector lets the heap grow to before the next cycle — the top of the
// sawtooth — and it follows the live heap at each cycle's end, so its
// median is steady where a sampled maximum is not.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		var goals []float64
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			metrics.Read(sample)
			goals = append(goals, float64(sample[0].Value.Uint64()))
			select {
			case <-t.C:
			case <-h.quit:
				h.done <- median(goals)
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.quit)
	return <-h.done
}

// --- statistics ---

// quantile is the q-quantile with linear interpolation between order
// statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func scale(xs []float64, unit float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / unit
	}
	return out
}
