package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// selftestSeed is the self-test's workload seed.
const selftestSeed = 7

// runSelftest runs every workload briefly, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json names, each
// with its unit, and that the correctness gate rejects a reference
// answer perturbed by one unit in the last place.
func runSelftest(o opts) int {
	o.seed = selftestSeed
	o.seconds = 1
	o.warmup = 250 * time.Millisecond
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench selftest: FAIL "+format+"\n", args...)
		return 1
	}
	spec, err := readSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return fail("%v", err)
	}
	if err := sameNames(spec.EndToEnd, e2eMetrics); err != nil {
		return fail("end_to_end: %v", err)
	}
	if err := sameNames(spec.PerLayer, layerMetrics); err != nil {
		return fail("per_layer: %v", err)
	}
	mix, redrawn, _, err := prepare(o)
	if err != nil {
		return fail("%v", err)
	}
	ctx := context.Background()
	for _, wl := range []string{wlPaced, wlStream} {
		for _, trace := range []bool{false, true} {
			o.workload, o.trace = wl, trace
			res, err := bench(ctx, o, mix, redrawn, nil)
			if err != nil {
				fmt.Fprint(os.Stderr, o.out.String())
				return fail("%s trace=%v: %v", wl, trace, err)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				return fail("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					return fail("%s trace=%v: metric %s missing or unit %q != %q", wl, trace, m.name, got.Unit, m.unit)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				return fail("%s trace=%v: attempted %d failed %d", wl, trace, res.Attempted, res.Failed)
			}
			fmt.Printf("ok   %-16s trace=%-5v %d metrics, %d requests\n", wl, trace, len(res.Metrics), res.Attempted)
		}
	}
	// The gate must reject an answer one ulp away from the server's, on
	// both the batch and the streaming locate path.
	for _, wl := range []string{wlPaced, wlStream} {
		o.workload, o.trace = wl, false
		o.out.Reset()
		res, err := bench(ctx, o, mix, redrawn, func(s *session) answer { return s.want.perturbed() })
		if err == nil || res == nil || res.Correct || !strings.Contains(o.out.String(), "answer mismatch") {
			return fail("%s: the correctness gate accepted perturbed reference answers", wl)
		}
		fmt.Printf("ok   %-16s perturbed reference rejected: %v\n", wl, err)
	}
	fmt.Println("selftest passed")
	return 0
}

// benchSpec is the part of BENCHMARK.json the self-test compares.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func sameNames(spec []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}, prog []struct{ name, unit string }) error {
	if len(spec) != len(prog) {
		return fmt.Errorf("BENCHMARK.json lists %d metrics, the program prints %d", len(spec), len(prog))
	}
	for i := range spec {
		if spec[i].Name != prog[i].name || spec[i].Unit != prog[i].unit {
			return fmt.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
				i, spec[i].Name, spec[i].Unit, prog[i].name, prog[i].unit)
		}
	}
	return nil
}
