package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"sort"
	"sync"

	"hyperear/internal/core"
	"hyperear/internal/geom"
	"hyperear/internal/server"
	"hyperear/internal/sessionio"
)

// answer is a locate response reduced to the fields the reference
// defines, each rendered exactly: encoding/json writes a float64 as the
// shortest decimal that parses back to the same bits, so two answers
// with equal fields are bit-identical. Fields a newer server adds to the
// response are ignored; a changed or missing one is a mismatch.
type answer map[string]string

// parseAnswer reduces a JSON locate response body.
func parseAnswer(body []byte) (answer, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decoding locate response: %w", err)
	}
	a := make(answer, len(m))
	for k, raw := range m {
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		canon, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		a[k] = string(canon)
	}
	return a, nil
}

// mismatch returns "" when got carries every field of want unchanged,
// else a description of the first differing field.
func (want answer) mismatch(got answer) string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			return fmt.Sprintf("field %q: got %s, want %s", k, got[k], want[k])
		}
	}
	return ""
}

// refDiag mirrors the server's rendering of one slide diagnostic.
type refDiag struct {
	Index  int    `json:"index"`
	Reason string `json:"reason"`
	Error  string `json:"error,omitempty"`
}

func refDiags(ds []core.SlideError) []refDiag {
	out := make([]refDiag, 0, len(ds))
	for _, d := range ds {
		j := refDiag{Index: d.Index, Reason: d.Reason}
		if d.Err != nil {
			j.Error = d.Err.Error()
		}
		out = append(out, j)
	}
	return out
}

// field is one key of a locate response and its value.
type field struct {
	key string
	val any
}

// answerOf renders fields the way parseAnswer reduces a response. A value
// JSON cannot carry (NaN or ±Inf: the server's encoder refuses the whole
// response) is left out of the answer and its key returned in skipped.
func answerOf(fields []field) (a answer, skipped []string, err error) {
	a = make(answer, len(fields))
	for _, f := range fields {
		raw, err := json.Marshal(f.val)
		if err != nil {
			var uv *json.UnsupportedValueError
			if errors.As(err, &uv) {
				skipped = append(skipped, f.key)
				continue
			}
			return nil, nil, err
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, nil, err
		}
		canon, err := json.Marshal(v)
		if err != nil {
			return nil, nil, err
		}
		a[f.key] = string(canon)
	}
	return a, skipped, nil
}

// localizers builds core.Localizers exactly as the server's localizer
// cache does for a request's meta: the server's normalized pipeline
// config with the meta overrides and the batch settings applied. One
// instance per parameter set, shared like the server shares it.
type localizers struct {
	cfg server.Config // normalized
	mu  sync.Mutex
	m   map[[2]float64]*core.Localizer
}

func newLocalizers(cfg server.Config) *localizers {
	return &localizers{cfg: cfg.Normalize(), m: make(map[[2]float64]*core.Localizer)}
}

// config is the pipeline config the server's localizer cache builds for
// a request's meta.
func (l *localizers) config(meta sessionio.Meta) core.Config {
	cfg := l.cfg.Pipeline
	if meta.SampleRate > 0 {
		cfg.SampleRate = meta.SampleRate
	}
	if meta.MicSeparation > 0 {
		cfg.MicSeparation = meta.MicSeparation
	}
	if l.cfg.BatchWindow > 0 && l.cfg.Workers > 1 {
		cfg.ASP.BatchWindow = l.cfg.BatchWindow
		cfg.ASP.MaxBatch = 2 * l.cfg.Workers
	}
	return cfg
}

func (l *localizers) get(meta sessionio.Meta) (*core.Localizer, error) {
	cfg := l.config(meta)
	// The mix never overrides the beacon, so rate and separation key it.
	key := [2]float64{cfg.SampleRate, cfg.MicSeparation}
	l.mu.Lock()
	defer l.mu.Unlock()
	if loc, ok := l.m[key]; ok {
		return loc, nil
	}
	loc, err := core.NewLocalizer(cfg)
	if err != nil {
		return nil, err
	}
	l.m[key] = loc
	return loc, nil
}

// decodeBundle decodes a session's multipart upload the way the server
// does.
func decodeBundle(s *session) (*sessionio.Bundle, error) {
	_, params, err := mime.ParseMediaType(s.contentType)
	if err != nil {
		return nil, err
	}
	return sessionio.ReadBundleMultipart(multipart.NewReader(bytes.NewReader(s.body), params["boundary"]))
}

// reference computes a session's answer with a direct core.Localizer
// call on the decoded bundle, and scores the fix against the simulator's
// ground truth (NaN when the pipeline finds no fix).
func reference(ctx context.Context, locs *localizers, s *session) error {
	b, err := decodeBundle(s)
	if err != nil {
		return fmt.Errorf("%s: decode: %w", s.label, err)
	}
	defer sessionio.RecycleBundle(b)
	loc, err := locs.get(b.Meta)
	if err != nil {
		return err
	}
	// The fields mirror the JSON the server renders for a locate
	// (internal/server runLocate and writePipelineError).
	var fields []field
	var est geom.Vec2
	var perr error
	if s.threeD {
		res, err := loc.Locate3DContext(ctx, b.Recording, b.IMU)
		if perr = err; err == nil {
			est = res.ProjectedPos
			fields = []field{{"mode", "3d"}, {"projectedDist", res.ProjectedDist}, {"projectedPos", res.ProjectedPos},
				{"l1", res.L1}, {"l2", res.L2}, {"h", res.H}, {"betaRad", res.Beta},
				{"fixes", [2]int{len(res.Fixes[0]), len(res.Fixes[1])}}, {"movements", len(res.Movements)},
				{"beacons", len(res.ASP.Beacons)}, {"sfoPPM", res.ASP.SFOPPM}, {"diagnostics", refDiags(res.Diagnostics)}}
		}
	} else {
		res, err := loc.Locate2DContext(ctx, b.Recording, b.IMU)
		if perr = err; err == nil {
			est = res.Pos
			fields = []field{{"mode", "2d"}, {"pos", res.Pos}, {"l", res.L},
				{"fixes", len(res.Fixes)}, {"movements", len(res.Movements)},
				{"beacons", len(res.ASP.Beacons)}, {"sfoPPM", res.ASP.SFOPPM}, {"diagnostics", refDiags(res.Diagnostics)}}
		}
	}
	s.wantCode = http.StatusOK
	if perr != nil {
		// The server answers a pipeline failure with 422 and the error
		// text; that exact answer is then the reference.
		s.wantCode = http.StatusUnprocessableEntity
		fields = []field{{"error", perr.Error()}}
	}
	if s.want, s.unrepresentable, err = answerOf(fields); err != nil {
		return err
	}
	s.errCM = math.NaN()
	if perr == nil {
		world := s.phoneXY.Add(est.Rotate(s.yaw))
		s.errCM = 100 * world.Dist(s.speakerXY)
	}
	return nil
}

// unanswerable says why the server gives no fix for the session, from its
// reference answer, or returns "" when it gives one.
func (s *session) unanswerable() string {
	switch {
	case s.wantCode != http.StatusOK:
		return fmt.Sprintf("the pipeline finds no fix (%d %s)", s.wantCode, s.want["error"])
	case len(s.unrepresentable) > 0:
		return fmt.Sprintf("DEFECT: the fix has non-finite %v, which JSON cannot carry, so the server would answer 200 with an empty body", s.unrepresentable)
	}
	return ""
}

// perturbed returns a copy of want with the first position coordinate moved
// by one unit in the last place — the smallest change the gate must see.
func (want answer) perturbed() answer {
	out := make(answer, len(want))
	for k, v := range want {
		out[k] = v
	}
	for _, k := range []string{"pos", "projectedPos"} {
		v, ok := out[k]
		if !ok {
			continue
		}
		var p geom.Vec2
		if err := json.Unmarshal([]byte(v), &p); err != nil {
			continue
		}
		p.X = math.Nextafter(p.X, math.Inf(1))
		raw, _ := json.Marshal(p)
		out[k] = string(raw)
	}
	return out
}
