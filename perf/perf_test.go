package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// declared indexes a BENCHMARK.json metric list by name.
func declared(ms []benchmarkMetric) map[string]benchmarkMetric {
	out := make(map[string]benchmarkMetric, len(ms))
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

// TestSmoke runs every workload briefly, untraced and traced, and holds
// the emitted workload and metric names equal to the sets BENCHMARK.json
// declares: a later PR that renames, drops or adds a metric in one place
// only fails here, not in the driver.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, w := range bf.Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		got = append(got, w.name)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(want, got) {
		t.Fatalf("workloads: BENCHMARK.json declares %v, the benchmark runs %v", want, got)
	}
	for _, name := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q does not match %v", name, nameRE)
		}
	}

	// layerOnly lists the per-layer metric families that must stay zero
	// except on the one workload that exercises the layer.
	layerOnly := map[string]string{
		"durable.persist_calls_per_job":   "rpc-hit-durable",
		"durable.wirehook_calls_per_job":  "rpc-hit-durable",
		"durable.barrier_calls_per_job":   "rpc-hit-durable",
		"wal.appends_per_job":             "rpc-hit-durable",
		"stability.advances_per_s":        "rpc-hit-watermark",
		"stability.tracker_calls_per_job": "rpc-hit-watermark",
		"stability.release_lag_ms_p50":    "rpc-hit-watermark",
		"core.rollbacks_per_job":          "rpc-miss",
		"wire.quiesce_ms_p50":             "rpc-miss",
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opts := runOptions{
				seed: 1, window: 300 * time.Millisecond, traced: traced,
				micro:   microConfig{budget: time.Millisecond, reps: 1},
				hostRef: 5 * time.Millisecond,
				stacks:  1, warmup: 4,
			}
			decl, defs := declared(bf.EndToEnd), endToEnd
			if traced {
				decl, defs = declared(bf.PerLayer), perLayer
				opts.traceOut = filepath.Join(t.TempDir(), "trace.json")
			}
			res, err := runWorkload(w, opts)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed > 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v reasons=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Problems, res.FailReasons)
			}
			if names, wantNames := slices.Sorted(maps.Keys(res.Metrics)), slices.Sorted(maps.Keys(decl)); !slices.Equal(names, wantNames) {
				t.Errorf("%s traced=%v: emitted metrics %v, BENCHMARK.json declares %v", w.name, traced, names, wantNames)
			}
			for _, d := range defs {
				if b := decl[d.name]; b.Unit != d.unit || b.Better != d.better {
					t.Errorf("%s: %s/%s here, %s/%s in BENCHMARK.json", d.name, d.unit, d.better, b.Unit, b.Better)
				}
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q does not match %v", name, nameRE)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, name, m.Value)
				}
				if m.Unit != decl[name].Unit {
					t.Errorf("%s: unit %q, BENCHMARK.json declares %q", name, m.Unit, decl[name].Unit)
				}
				if only, ok := layerOnly[name]; ok && (m.Value != 0) != (only == w.name) {
					t.Errorf("%s on %s = %v; it must be non-zero on %s and only there", name, w.name, m.Value, only)
				}
			}
			if !traced {
				continue
			}
			data, err := os.ReadFile(opts.traceOut)
			if err != nil {
				t.Fatalf("%s: span file: %v", w.name, err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("%s: span file: %v", w.name, err)
			}
			if len(tf.Jobs) != res.Attempted || len(tf.Seams) == 0 {
				t.Errorf("%s: span file holds %d jobs and %d seams, want %d jobs", w.name, len(tf.Jobs), len(tf.Seams), res.Attempted)
			}
		}
	}
}

// TestHistQuantiles pins the log-linear histogram to its promised error.
func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 10000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 5000e3}, {99, 9900e3}} {
		got := h.quantileNS(tc.p)
		if got > tc.want || got < tc.want*0.93 {
			t.Errorf("p%v = %v ns, want within 7%% below %v", tc.p, got, tc.want)
		}
	}
	if h.n() != 10000 {
		t.Errorf("count = %d", h.n())
	}
}
