package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Workload names.
const (
	wlPaced  = "locate-paced"
	wlStream = "stream-wal"
)

// pacedRate is locate-paced's fixed arrival rate (locates/s). It must sit
// well below saturation in the host's slow spells too (14–21 locates/s
// on the 2-core host this was tuned on, 26–33 in its fast ones): at 8/s
// the two client connections were often both busy, the generator ran up
// to ~90 ms late at p95, and that queueing amplified host-speed swings
// into a p90 spread of 0.31 across ten seeds. At 6.25/s a 30 s run makes
// 184 locates (23 in each of its eight segments), 18 beyond p90.
const pacedRate = 6.25

// tally is what one phase of load observed, merged across clients.
type tally struct {
	sent, ok, failed int
	status           map[int]int // by HTTP status; 0 = transport error
	// Locate endpoints: answered (200 or 422: the pipeline ran), 429s
	// and 503s, for the /metrics cross-check.
	locateAnswered, locateShed, locateCanceled int
	created, deleted                           int
	locates                                    int       // locates answered as the reference predicts
	locateMS                                   []float64 // per successful locate
	chunkMS                                    []float64 // per acknowledged audio upload
	audioS                                     float64   // audio seconds acknowledged
	lateMS                                     []float64 // open loop: send time − due time
	mismatches                                 []string
	start, end                                 time.Time
	secs                                       float64 // wall time of the phases merged in
}

func newTally() *tally { return &tally{status: make(map[int]int)} }

func (t *tally) merge(o *tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.failed += o.failed
	for k, v := range o.status {
		t.status[k] += v
	}
	t.locateAnswered += o.locateAnswered
	t.locateShed += o.locateShed
	t.locateCanceled += o.locateCanceled
	t.created += o.created
	t.deleted += o.deleted
	t.locates += o.locates
	t.locateMS = append(t.locateMS, o.locateMS...)
	t.chunkMS = append(t.chunkMS, o.chunkMS...)
	t.audioS += o.audioS
	t.lateMS = append(t.lateMS, o.lateMS...)
	t.mismatches = append(t.mismatches, o.mismatches...)
	if t.end.Before(o.end) {
		t.end = o.end
	}
	t.secs += o.secs
}

// loadgen is the load generator: it sends one workload's requests and
// checks every answer.
type loadgen struct {
	svc     *service
	mix     []*session
	workers int
	// want overrides the sessions' reference answers (the self-test's
	// perturbed gate); nil uses session.want.
	want func(*session) answer
}

func (d *loadgen) answerFor(s *session) answer {
	if d.want != nil {
		return d.want(s)
	}
	return s.want
}

// do sends one request and reads the whole response.
func (d *loadgen) do(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.svc.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := d.svc.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// record books one response; wantCode is the success status.
func (t *tally) record(code, wantCode int, err error) bool {
	t.sent++
	if err != nil {
		code = 0
	}
	t.status[code]++
	if code == wantCode {
		t.ok++
		return true
	}
	t.failed++
	return false
}

// recordLocate books a locate response and checks it against the
// session's reference: the same status, and for that status the same
// answer. A 429 or 503 is a failure but not a wrong answer; a wrong
// answer is both a failure and a mismatch, which fails the run. It
// reports whether the locate was answered as the reference predicts with
// a 200.
func (t *tally) recordLocate(s *session, want answer, code int, raw []byte, err error, ms float64) bool {
	answered := err == nil && (code == http.StatusOK || code == http.StatusUnprocessableEntity)
	switch {
	case answered:
		t.locateAnswered++
	case err == nil && code == http.StatusTooManyRequests:
		t.locateShed++
	case err == nil && code == http.StatusServiceUnavailable:
		t.locateCanceled++
	}
	ok := t.record(code, http.StatusOK, err)
	if !answered {
		return false
	}
	wrong := func(m string) bool {
		t.mismatches = append(t.mismatches, s.label+": "+m)
		if ok {
			t.ok--
			t.failed++
		}
		return false
	}
	if code != s.wantCode {
		return wrong(fmt.Sprintf("status %d, reference %d", code, s.wantCode))
	}
	got, perr := parseAnswer(raw)
	if perr != nil {
		return wrong(perr.Error())
	}
	if m := want.mismatch(got); m != "" {
		return wrong(m)
	}
	if ok {
		t.locates++
		t.locateMS = append(t.locateMS, ms)
	}
	return ok
}

// schedule is a seeded session order shared by a phase's clients: a
// sequence of shuffled decks, each holding every session once, so any
// stretch of requests carries the mix in equal shares and a seed decides
// only the order.
type schedule struct {
	order []int
	next  atomic.Int64
}

func newSchedule(rng *rand.Rand, n, decks int) *schedule {
	s := &schedule{}
	for d := 0; d < decks; d++ {
		s.order = append(s.order, rng.Perm(n)...)
	}
	return s
}

func (s *schedule) take() int {
	k := s.next.Add(1) - 1
	return s.order[int(k)%len(s.order)]
}

// run drives the workload for dur and returns the merged tally.
func (d *loadgen) run(ctx context.Context, workload string, dur time.Duration, rng *rand.Rand) *tally {
	sched := newSchedule(rng, len(d.mix), 512)
	var arrivals []time.Duration
	if workload == wlPaced {
		// A Poisson process conditioned on its count and on its last
		// arrival falling at dur: n = rate·dur exponential gaps, scaled
		// to sum to dur. The offered load is then exactly the fixed rate
		// in every run, only the spacing is random, and the phase always
		// ends with a request in flight.
		n := int(pacedRate*dur.Seconds() + 0.5)
		gaps := make([]float64, n)
		var span float64
		for i := range gaps {
			gaps[i] = rng.ExpFloat64()
			span += gaps[i]
		}
		arrivals = make([]time.Duration, n)
		var at float64
		for i, g := range gaps {
			at += g
			arrivals[i] = time.Duration(at / span * float64(dur))
		}
	}
	var nextArrival atomic.Int64
	total := newTally()
	total.start = time.Now()
	total.end = total.start
	deadline := total.start.Add(dur)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < d.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := newTally()
			switch workload {
			case wlPaced:
				for ctx.Err() == nil {
					k := int(nextArrival.Add(1) - 1)
					if k >= len(arrivals) {
						break
					}
					due := total.start.Add(arrivals[k])
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					t.lateMS = append(t.lateMS, ms(time.Since(due)))
					d.locateOnce(ctx, t, d.mix[sched.take()], due)
				}
			case wlStream:
				for time.Now().Before(deadline) && ctx.Err() == nil {
					d.streamOnce(ctx, t, d.mix[sched.take()], 0)
				}
			}
			t.end = time.Now()
			mu.Lock()
			total.merge(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	// A phase lasts from its start to its last completion.
	total.secs = total.end.Sub(total.start).Seconds()
	return total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// locateOnce POSTs a session bundle to /v1/locate; latency runs from
// from (the send time, or the due time in the open loop).
func (d *loadgen) locateOnce(ctx context.Context, t *tally, s *session, from time.Time) {
	code, raw, err := d.do(ctx, http.MethodPost, "/v1/locate?mode="+s.mode(), s.contentType, s.body)
	lat := ms(time.Since(from))
	if t.recordLocate(s, d.answerFor(s), code, raw, err, lat) {
		// The bundle is the only audio upload of a batch locate.
		t.chunkMS = append(t.chunkMS, lat)
		t.audioS += s.audioS
	}
}

// streamOnce runs one streaming session: create, 100 ms PCM chunks,
// IMU, locate, delete. A session started before the phase's deadline runs
// to its end, as a request in flight does on the locate workloads. With
// maxChunks > 0 it stops after maxChunks chunks and deletes the session.
func (d *loadgen) streamOnce(ctx context.Context, t *tally, s *session, maxChunks int) {
	code, raw, err := d.do(ctx, http.MethodPost, "/v1/sessions", "application/json", s.metaRaw)
	if !t.record(code, http.StatusCreated, err) {
		return
	}
	t.created++
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &created); err != nil || created.ID == "" {
		t.mismatches = append(t.mismatches, fmt.Sprintf("%s: create response %q", s.label, raw))
		return
	}
	path := "/v1/sessions/" + created.ID
	complete := true
	for i, chunk := range s.chunks() {
		if maxChunks > 0 && i == maxChunks {
			complete = false
			break
		}
		t0 := time.Now()
		code, _, err := d.do(ctx, http.MethodPost, path+"/audio", "application/octet-stream", chunk)
		lat := ms(time.Since(t0))
		if t.record(code, http.StatusOK, err) {
			t.chunkMS = append(t.chunkMS, lat)
			t.audioS += float64(len(chunk)/4) / s.phone.SampleRate
		}
	}
	if complete {
		code, _, err = d.do(ctx, http.MethodPost, path+"/imu", "text/csv", s.imuCSV)
		t.record(code, http.StatusNoContent, err)
		t0 := time.Now()
		code, raw, err = d.do(ctx, http.MethodPost, path+"/locate?mode="+s.mode(), "", nil)
		t.recordLocate(s, d.answerFor(s), code, raw, err, ms(time.Since(t0)))
	}
	code, _, err = d.do(ctx, http.MethodDelete, path, "", nil)
	if t.record(code, http.StatusNoContent, err) {
		t.deleted++
	}
}
