// Command perf is the repository's benchmark: a closed-loop load
// generator over two real HOPE nodes composed in one process (wire.Node
// over loopback TCP + core.Engine, optionally durable.Store and the
// stability watermark, wired as cmd/hoped wires them). See README.md in
// this directory for the workloads, the metrics and how they interact.
//
//	go run ./perf --seed 1                      # every workload, untraced then traced
//	go run ./perf --workload rpc-hit --trace 0  # one run, end-to-end metrics
//	go run ./perf --workload rpc-hit --trace 1  # one run, per-layer metrics
//	go run ./perf --micro                       # unit-cost loops only
//	go run ./perf --selfcheck                   # untraced suite twice; compare against the bounds
//
// A run's last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run this one workload (default: every workload, each in a fresh process)")
	seed := fs.Int64("seed", 1, "seed of the generated job stream")
	seconds := fs.Float64("seconds", 20, "measured seconds of a run, split evenly over its stacks")
	traceMode := fs.Int("trace", -1, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics); default 0 with --workload, both without")
	traceOut := fs.String("trace-out", "", "traced runs write their spans to this file (suite: one file per workload, name appended)")
	micro := fs.Bool("micro", false, "run only the unit-cost loops, at full budget")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced suite twice in fresh processes and compare against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *traceMode < -1 || *traceMode > 1 {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	window := time.Duration(*seconds * float64(time.Second))

	switch {
	case *micro:
		return runMicroOnly(stdout)
	case *selfcheck:
		return runSelfcheck(stdout, *seed, *seconds)
	case *workloadName == "":
		return runSuite(stdout, *seed, *seconds, *traceMode, *traceOut)
	}
	w, ok := workloadByName(*workloadName)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workloadName)
	}
	res, err := runWorkload(w, runOptions{
		seed: *seed, window: window, traced: *traceMode == 1, traceOut: *traceOut,
		micro: tracedMicro, hostRef: refBurst, stacks: stacksPerRun, warmup: warmupJobs,
	})
	if err != nil {
		return err
	}
	if err := printResult(stdout, res); err != nil {
		return err
	}
	if len(res.Problems) > 0 {
		return fmt.Errorf("%s: %s", w.name, strings.Join(res.Problems, "; "))
	}
	return nil
}

// driverLine is the contract's last line of output.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints the run's metadata, every metric by name with its
// unit (and, where they exist, its sample count and its min/median/max
// over the stacks' windows), and the driver's JSON line last.
func printResult(w io.Writer, res *result) error {
	mode := "untraced"
	defs := endToEnd
	if res.Traced {
		mode, defs = "traced", perLayer
	}
	metaJSON, err := json.Marshal(res.Meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "perf %s %s: %d jobs attempted, %d failed, correct=%v\n",
		res.Workload, mode, res.Attempted, res.Failed, res.Correct)
	fmt.Fprintf(w, "meta %s\n", metaJSON)
	fmt.Fprintf(w, "host speed %.4f of the quiet builder's; end-to-end times are in reference time (× host speed), per-layer times as the clock read them\n", res.HostSpeed)
	for _, d := range defs {
		m := res.Metrics[d.name]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", d.name, m.Value, m.Unit)
		if n, ok := res.Samples[d.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if s, ok := res.SubWindows[d.name]; ok {
			line += fmt.Sprintf(" windows min/med/max %.4f/%.4f/%.4f", s[0], s[1], s[2])
		}
		if c, ok := res.Clock[d.name]; ok && c != m.Value {
			line += fmt.Sprintf(" clock %.4f", c)
		}
		fmt.Fprintln(w, line)
	}
	for _, r := range res.FailReasons {
		fmt.Fprintf(w, "failed job: %s\n", r)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	last, err := json.Marshal(driverLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

func runMicroOnly(w io.Writer) error {
	units, err := runMicro(fullMicro)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "perf micro: ≥ %v per loop, median of %d\n", fullMicro.budget, fullMicro.reps)
	for _, d := range perLayer {
		if v, ok := units[d.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	return nil
}

// child runs one workload in a fresh process of this same binary,
// echoing its output, and returns its driver line.
func child(w io.Writer, name string, seed int64, seconds float64, traced bool, traceOut string) (driverLine, error) {
	var line driverLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if traceOut != "" {
			args = append(args, "--trace-out", traceOut+"."+name+".json")
		}
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(w, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return line, fmt.Errorf("%s: %w", name, runErr)
		}
		return line, fmt.Errorf("%s: no result line: %w", name, err)
	}
	if runErr != nil {
		return line, fmt.Errorf("%s: %w", name, runErr)
	}
	return line, nil
}

// runSuite runs every workload untraced and then traced, each in a fresh
// process, and prints the metrics that need two workloads to compute.
func runSuite(w io.Writer, seed int64, seconds float64, traceMode int, traceOut string) error {
	untraced := map[string]driverLine{}
	var failed []string
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			if (traced && traceMode == 0) || (!traced && traceMode == 1) {
				continue
			}
			line, err := child(w, wl.name, seed, seconds, traced, traceOut)
			if err != nil {
				failed = append(failed, err.Error())
			}
			if !traced {
				untraced[wl.name] = line
			}
			fmt.Fprintln(w)
		}
	}
	hit, sync := untraced["rpc-hit"].Metrics, untraced["rpc-sync"].Metrics
	if hit != nil && sync != nil {
		fmt.Fprintln(w, "perf derived (untraced rpc-hit against untraced rpc-sync):")
		fmt.Fprintf(w, "  %-34s %14.4f %%   (spec_ms_p50 %.4f vs %.4f ms; the paper's §6 figure)\n", "rpc.saved_pct_vs_sync",
			100*(1-per(hit["spec_ms_p50"].Value, sync["spec_ms_p50"].Value)),
			hit["spec_ms_p50"].Value, sync["spec_ms_p50"].Value)
		fmt.Fprintf(w, "  %-34s %14.4f ratio (jobs_per_s %.2f vs %.2f)\n", "rpc.jobs_ratio_hit_over_sync",
			per(hit["jobs_per_s"].Value, sync["jobs_per_s"].Value),
			hit["jobs_per_s"].Value, sync["jobs_per_s"].Value)
	}
	if len(failed) > 0 {
		return fmt.Errorf("suite: %s", strings.Join(failed, "; "))
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the selfcheck reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// runSelfcheck runs the untraced suite twice, back to back, in fresh
// processes and prints, per (metric, workload), both values, how much
// worse the second is than the first, and the bound. It fails when any
// pair is outside its bound in either direction: two runs of the same
// code must agree, or the bound means nothing on this machine.
func runSelfcheck(w io.Writer, seed int64, seconds float64) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	var passes [2]map[string]driverLine
	for i := range passes {
		passes[i] = map[string]driverLine{}
		for _, wl := range workloads {
			line, err := child(io.Discard, wl.name, seed, seconds, false, "")
			if err != nil {
				return err
			}
			passes[i][wl.name] = line
			fmt.Fprintf(w, "pass %d %-18s %d jobs, %d failed\n", i+1, wl.name, line.Attempted, line.Failed)
		}
	}
	fmt.Fprintf(w, "\n%-18s %-20s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	var outside []string
	for _, wl := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := passes[0][wl.name].Metrics[m.Name].Value, passes[1][wl.name].Metrics[m.Name].Value
			worse := per(b-a, a)
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if math.Abs(worse) > m.Bound {
				mark = "  OUTSIDE"
				outside = append(outside, wl.name+"/"+m.Name)
			}
			fmt.Fprintf(w, "%-18s %-20s %12.4f %12.4f %+8.1f%% %6.1f%%%s\n",
				wl.name, m.Name, a, b, 100*worse, 100*m.Bound, mark)
		}
	}
	if len(outside) > 0 {
		sort.Strings(outside)
		return fmt.Errorf("selfcheck: %d pairs outside their bound: %s", len(outside), strings.Join(outside, ", "))
	}
	return nil
}
