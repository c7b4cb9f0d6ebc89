package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"time"

	"hyperear/internal/chirp"
	"hyperear/internal/core"
	"hyperear/internal/dsp"
	"hyperear/internal/geom"
	"hyperear/internal/mic"
	"hyperear/internal/server"
	"hyperear/internal/sessionio"
	"hyperear/internal/sessionstore"
)

// The traced pass times every layer from outside, through its public
// functions, in the order the server calls them, one request per mix
// session. Spans live in memory and are written out at exit; a layer's
// self time is its span's duration minus the time its child spans cover.

// span is one timed call. Start and End are nanoseconds since the
// tracer's origin; Parent is the index of the enclosing span (-1 for a
// request root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer records spans; with on false it records nothing, which gives
// the span-off pass the tracing overhead is measured against.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
}

// begin opens a span and returns its handle (-1 when recording is off).
func (t *tracer) begin(name string, req, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if h >= 0 {
		t.spans[h].End = int64(time.Since(t.origin))
	}
}

// selfTimes sums each span name's self time per request, in
// nanoseconds: out[name][req].
func (t *tracer) selfTimes() map[string]map[int]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]map[int]float64)
	for i, s := range t.spans {
		if out[s.Name] == nil {
			out[s.Name] = make(map[int]float64)
		}
		out[s.Name][s.Req] += float64(s.End - s.Start - child[i])
	}
	return out
}

// durations returns every span's duration (ns) for one name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fftReps is how many forward transforms each request times; one
// SegmentSize transform is a few hundred microseconds, so the median of
// many is steadier than any single one.
const fftReps = 64

// layerRig holds the per-layer instances the pass calls, built as the
// server builds its own: the localizer from the daemon config with the
// request's meta applied, and the detector the ASP stage wraps around
// the same beacon and band-pass, batching as the server's does. Every
// request checks that the rig's detector and TTL calls reproduce the
// localizer's beacons and fixes, so a rig that drifts from core fails
// the run instead of timing a different path.
type layerRig struct {
	locs    *localizers
	cfg     server.Config // normalized
	store   *sessionstore.FileStore
	storeID int
	dets    map[float64]*chirp.Detector
}

func newLayerRig(cfg server.Config, store *sessionstore.FileStore) *layerRig {
	return &layerRig{locs: newLocalizers(cfg), cfg: cfg.Normalize(), store: store, dets: make(map[float64]*chirp.Detector)}
}

// detector rebuilds the ASP stage's matched filter for a request's meta
// as NewASP builds it inside the server's cached localizer: the band-pass
// folded into the template, and the batch correlator on when the server
// turns batching on (it does at the default Workers and BatchWindow).
func (r *layerRig) detector(meta sessionio.Meta) (*chirp.Detector, error) {
	cfg := r.locs.config(meta)
	fs, src, asp := cfg.SampleRate, cfg.Source, cfg.ASP
	if d, ok := r.dets[fs]; ok {
		return d, nil
	}
	lo := math.Max(src.Low-asp.BandMarginHz, 50)
	hi := src.High + asp.BandMarginHz
	if hi >= fs/2 {
		hi = fs/2 - 1
	}
	bp, err := dsp.NewBandPass(lo, hi, fs, asp.FilterTaps)
	if err != nil {
		return nil, err
	}
	d, err := chirp.NewDetectorFiltered(src, fs, asp.TemplateGain, bp.Taps())
	if err != nil {
		return nil, err
	}
	if asp.BatchWindow > 0 && asp.MaxBatch >= 2 {
		d.EnableBatch(asp.BatchWindow, asp.MaxBatch)
	}
	r.dets[fs] = d
	return d, nil
}

// blockWorkers is the per-channel block parallelism the ASP stage gives
// each channel at the server's per-request Parallelism (core's
// channel×block split: two channel workers share the budget).
func (r *layerRig) blockWorkers() int {
	p := r.cfg.Pipeline.Parallelism
	if p <= 1 {
		return 1
	}
	return p / 2
}

// pass runs one traced request per session and returns the tracer.
// probe drives the idle server each request's HTTP locate is timed on.
func (r *layerRig) pass(ctx context.Context, mix []*session, probe *loadgen, on bool) (*tracer, error) {
	tr := &tracer{on: on, origin: time.Now()}
	for req, s := range mix {
		if err := r.request(ctx, tr, req, s, probe); err != nil {
			return nil, fmt.Errorf("%s: %w", s.label, err)
		}
	}
	return tr, nil
}

func (r *layerRig) request(ctx context.Context, tr *tracer, req int, s *session, probe *loadgen) error {
	root := tr.begin("request", req, -1)
	defer tr.end(root)

	h := tr.begin("server.request", req, root)
	code, raw, err := probe.do(ctx, http.MethodPost, "/v1/locate?mode="+s.mode(), s.contentType, s.body)
	tr.end(h)
	if t := newTally(); !t.recordLocate(s, s.want, code, raw, err, 0) {
		return fmt.Errorf("probe locate: status %d %v %v", code, err, t.mismatches)
	}

	h = tr.begin("sessionio.decode", req, root)
	b, err := decodeBundle(s)
	tr.end(h)
	if err != nil {
		return err
	}
	defer sessionio.RecycleBundle(b)
	loc, err := r.locs.get(b.Meta)
	if err != nil {
		return err
	}

	h = tr.begin("core.locate", req, root)
	var res2 *core.Result2D
	var res3 *core.Result3D
	if s.threeD {
		res3, err = loc.Locate3DContext(ctx, b.Recording, b.IMU)
	} else {
		res2, err = loc.Locate2DContext(ctx, b.Recording, b.IMU)
	}
	tr.end(h)
	if err != nil {
		return err
	}
	var fixes []core.SlideFix
	if s.threeD {
		fixes = append(append(fixes, res3.Fixes[0]...), res3.Fixes[1]...)
	} else {
		fixes = res2.Fixes
	}
	asp, stageFixes, err := r.stages(tr, req, root, loc, b, s)
	if err != nil {
		return err
	}
	if !slices.Equal(stageFixes, fixes) {
		return fmt.Errorf("layer rig drifted from core: the TTL stage calls gave %d fixes %v, the locate %d %v",
			len(stageFixes), stageFixes, len(fixes), fixes)
	}
	dets, err := r.matchedFilter(ctx, tr, req, root, b)
	if err != nil {
		return err
	}
	pairs := chirp.PairBeacons(dets[0], dets[1], r.locs.config(b.Meta).ASP.MaxPairSkew)
	if err := sameBeacons(pairs, asp.Beacons); err != nil {
		return fmt.Errorf("layer rig drifted from core: %w", err)
	}
	if err := r.stream(ctx, tr, req, root, b.Recording, s); err != nil {
		return err
	}
	return nil
}

// stages calls the pipeline's stages one by one — ASP, MSP, PDE over
// every segment, TTL over every slide — under one parent span, so their
// self times can be set against core.locate. It returns the ASP result
// and the slide fixes.
func (r *layerRig) stages(tr *tracer, req, root int, loc *core.Localizer, b *sessionio.Bundle, s *session) (*core.ASPResult, []core.SlideFix, error) {
	parent := tr.begin("core.stages", req, root)
	defer tr.end(parent)
	h := tr.begin("core.asp", req, parent)
	asp, err := loc.Preprocess(b.Recording)
	tr.end(h)
	if err != nil {
		return nil, nil, err
	}
	o := r.cfg.Pipeline.Obs
	mspCfg := core.DefaultMSPConfig()
	mspCfg.Obs = o
	h = tr.begin("core.msp", req, parent)
	msp, err := core.PreprocessIMU(b.IMU, mspCfg)
	tr.end(h)
	if err != nil {
		return nil, nil, err
	}
	pdeCfg := core.DefaultPDEConfig()
	pdeCfg.Obs = o
	ests := make([]core.SlideEstimate, len(msp.Segments))
	h = tr.begin("core.pde", req, parent)
	for i, seg := range msp.Segments {
		ests[i] = core.EstimateMovement(msp, seg, pdeCfg)
	}
	tr.end(h)
	ttlCfg := core.DefaultTTLConfig()
	ttlCfg.MicSeparation = s.phone.MicSeparation
	ttlCfg.SpeedOfSound = geom.SpeedOfSound
	var fixes []core.SlideFix
	h = tr.begin("core.ttl", req, parent)
	y := 0.0
	for _, est := range ests {
		if est.Kind == core.KindStature {
			continue
		}
		if est.Kind == core.KindSlide {
			before, after, ok := anchors(asp, est, ttlCfg.MaxAnchorGap)
			if ok {
				yawB := meanYaw(msp, est.StartTime-ttlCfg.MaxAnchorGap, est.StartTime)
				yawA := meanYaw(msp, est.EndTime, est.EndTime+ttlCfg.MaxAnchorGap)
				if fix, err := core.LocalizeSlide(before, after, asp.PeriodEff, est.DispY, y, yawB, yawA, ttlCfg); err == nil {
					fixes = append(fixes, fix)
				}
			}
		}
		y += est.DispY
	}
	tr.end(h)
	return asp, fixes, nil
}

// anchors averages the beacons in the rest windows before and after a
// slide onto virtual anchor beacons, as the pipeline's TTL stage does.
func anchors(asp *core.ASPResult, est core.SlideEstimate, gap float64) (before, after core.Beacon, ok bool) {
	avg := func(lo, hi float64) (core.Beacon, bool) {
		var win []core.Beacon
		for _, b := range asp.Beacons {
			if b.T1 >= lo && b.T1 <= hi {
				win = append(win, b)
			}
		}
		if len(win) == 0 {
			return core.Beacon{}, false
		}
		ref := win[len(win)-1]
		var t1, t2, snr float64
		for _, b := range win {
			shift := float64(ref.Seq-b.Seq) * asp.PeriodEff
			t1 += b.T1 + shift
			t2 += b.T2 + shift
			snr += b.SNR
		}
		k := float64(len(win))
		return core.Beacon{Seq: ref.Seq, T1: t1 / k, T2: t2 / k, SNR: snr / k}, true
	}
	before, ok1 := avg(est.StartTime-gap, est.StartTime)
	after, ok2 := avg(est.EndTime, est.EndTime+gap)
	return before, after, ok1 && ok2
}

// meanYaw averages the MSP yaw deviation over [lo, hi] seconds.
func meanYaw(m *core.MSPResult, lo, hi float64) float64 {
	i0 := max(int(lo*m.Fs), 0)
	i1 := min(int(hi*m.Fs)+1, len(m.YawDev))
	if i0 >= i1 {
		return 0
	}
	var sum float64
	for _, v := range m.YawDev[i0:i1] {
		sum += v
	}
	return sum / float64(i1-i0)
}

// matchedFilter times the detector and its two DSP kernels per channel,
// at the block parallelism the server gives one request, plus the FFT
// the segmented kernels are built on. It returns each channel's
// detections.
func (r *layerRig) matchedFilter(ctx context.Context, tr *tracer, req, root int, b *sessionio.Bundle) ([2][]chirp.Detection, error) {
	var dets [2][]chirp.Detection
	rec := b.Recording
	det, err := r.detector(b.Meta)
	if err != nil {
		return dets, err
	}
	workers := r.blockWorkers()
	corr := dsp.NewCorrelator(det.Reference())
	var ds chirp.DetectScratch
	var seg dsp.SegScratch
	var out, env []float64
	for i, ch := range [][]float64{rec.Mic1, rec.Mic2} {
		h := tr.begin("chirp.detect", req, root)
		dets[i], err = det.DetectIntoCtx(ctx, nil, ch, &ds, workers)
		tr.end(h)
		if err != nil {
			return dets, err
		}
		h = tr.begin("dsp.correlate", req, root)
		out, err = corr.CrossCorrelateSegmentedCtx(ctx, out, ch, &seg, workers)
		tr.end(h)
		if err != nil {
			return dets, err
		}
		h = tr.begin("dsp.envelope", req, root)
		env, err = dsp.EnvelopeSegmentedCtx(ctx, env, out, &seg, workers)
		tr.end(h)
		if err != nil {
			return dets, err
		}
	}
	plan, err := dsp.PlanFor(corr.SegmentSize())
	if err != nil {
		return dets, err
	}
	src := make([]complex128, corr.SegmentSize())
	for i := range src {
		src[i] = complex(rec.Mic1[i%len(rec.Mic1)], 0)
	}
	buf := make([]complex128, len(src))
	for i := 0; i < fftReps; i++ {
		copy(buf, src)
		h := tr.begin("dsp.fft", req, root)
		plan.Forward(buf)
		tr.end(h)
	}
	return dets, nil
}

// sameBeacons checks that the detector's paired detections are the ASP
// stage's beacons: the same arrival times on both channels and the same
// pair SNR, bit for bit.
func sameBeacons(pairs [][2]chirp.Detection, beacons []core.Beacon) error {
	if len(pairs) != len(beacons) {
		return fmt.Errorf("the detector paired %d beacons, the ASP stage %d", len(pairs), len(beacons))
	}
	for i, p := range pairs {
		b := beacons[i]
		if p[0].Time != b.T1 || p[1].Time != b.T2 || math.Min(p[0].SNR, p[1].SNR) != b.SNR {
			return fmt.Errorf("beacon %d: detector (%v, %v), ASP stage (%v, %v)", i, p[0].Time, p[1].Time, b.T1, b.T2)
		}
	}
	return nil
}

// stream pushes the session's audio through a fresh StreamDetector pair
// in 100 ms chunks, as the server does per audio upload, and appends each
// chunk's PCM to the rig's FileStore under the stream-wal fsync policy.
func (r *layerRig) stream(ctx context.Context, tr *tracer, req, root int, rec *mic.Recording, s *session) error {
	src := r.cfg.Pipeline.Source
	d1, err := chirp.NewStreamDetector(src, rec.Fs)
	if err != nil {
		return err
	}
	d2, err := chirp.NewStreamDetector(src, rec.Fs)
	if err != nil {
		return err
	}
	r.storeID++
	id := fmt.Sprintf("layer-%d", r.storeID)
	if err := r.store.Create(id, sessionio.Meta{SampleRate: rec.Fs, MicSeparation: s.phone.MicSeparation}, src, rec.Fs); err != nil {
		return err
	}
	n := s.chunkBytes / 4
	for i, c := 0, 0; i < len(rec.Mic1); i, c = i+n, c+1 {
		end := min(i+n, len(rec.Mic1))
		h := tr.begin("chirp.push", req, root)
		d1.PushContext(ctx, rec.Mic1[i:end])
		tr.end(h)
		h = tr.begin("chirp.push", req, root)
		d2.PushContext(ctx, rec.Mic2[i:end])
		tr.end(h)
		h = tr.begin("sessionstore.append", req, root)
		err := r.store.AppendAudio(id, s.pcm[4*i:4*end])
		tr.end(h)
		if err != nil {
			return err
		}
	}
	return r.store.Evict(id, server.EvictExplicit)
}

// blocksPerChannel is the overlap-save block count of one channel: the
// segmented kernel's step over the recording, rounded up.
func (r *layerRig) blocksPerChannel(s *session) (int, error) {
	det, err := r.detector(sessionio.Meta{SampleRate: s.phone.SampleRate, MicSeparation: s.phone.MicSeparation})
	if err != nil {
		return 0, err
	}
	step := dsp.NewCorrelator(det.Reference()).SegmentStep()
	return (s.frames + step - 1) / step, nil
}

// perRequest returns one value per request for a span name's self time,
// scaled from nanoseconds by unit.
func perRequest(self map[string]map[int]float64, name string, unit float64) []float64 {
	var out []float64
	for _, v := range self[name] {
		out = append(out, v/unit)
	}
	sort.Float64s(out)
	return out
}
