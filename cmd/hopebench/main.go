// Command hopebench regenerates the paper's quantitative results as
// tables (see DESIGN.md §5 and EXPERIMENTS.md). Each subcommand runs one
// experiment sweep; with no arguments every experiment runs.
//
// Usage:
//
//	hopebench [e1|e3|e5|e6|e7|e8|e9|e10|e11|ablation]...
//	hopebench chaos [--nodes N] [--seed S|--seeds S,S,…] [--span D] [--kill] [--perm-kill] [--plan]
//	hopebench chaos --churn [--nodes N] [--seed S|--seeds S,S,…] [--survive] [--watermark] [--json F]
//
// The chaos experiment runs the multi-node fault storm, or with --churn
// the membership storm (internal/harness), against live hoped processes;
// each refuses the other's flags. It is not part of the default sweep. Performance is measured by the repository's
// benchmark, `bash perf/run.sh` (perf/README.md), not here.
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/hope-dist/hope/internal/bench"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/phold"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hopebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// chaos takes its own flags and spawns child processes, so it is
	// dispatched separately and excluded from the default sweep.
	if len(args) > 0 && args[0] == "chaos" {
		return chaosExperiment(args[1:])
	}
	all := map[string]func() error{
		"e1": e1, "e3": e3, "e5": e5, "e6": e6, "e7": e7, "e8": e8, "e9": e9,
		"ablation": ablation, "e10": e10, "e11": e11,
	}
	if len(args) == 0 {
		args = []string{"e1", "e3", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "ablation"}
	}
	for _, a := range args {
		f, ok := all[a]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want e1,e3,e5,e6,e7,e8,e9,e10,e11,ablation)", a)
		}
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		fmt.Println()
	}
	return nil
}

func e1() error {
	fmt.Println("E1 — RPC latency avoidance (paper §3.1; §6 claims savings up to 70%)")
	fmt.Println("workload: report pagination, 8 reports; pageSize controls denial rate")
	fmt.Printf("%-10s %-9s %12s %12s %12s %7s %9s\n",
		"latency", "pageSize", "pessimistic", "optimistic", "commit", "saved", "rollbacks")
	for _, latency := range []time.Duration{200 * time.Microsecond, 1 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		for _, pageSize := range []int{1000, 8, 3} {
			res, err := bench.RunE1(latency, pageSize, 8)
			if err != nil {
				return err
			}
			fmt.Printf("%-10v %-9d %12v %12v %12v %6.1f%% %9d\n",
				res.Latency, res.PageSize, res.Pessimistic.Round(time.Microsecond),
				res.Optimistic.Round(time.Microsecond), res.OptCommit.Round(time.Microsecond),
				res.SavedPercent, res.Rollbacks)
		}
	}
	return nil
}

func e3() error {
	fmt.Println("E3 — dependency cycles (paper §5.3, Figures 12–14)")
	fmt.Println("workload: N-member mutual speculative-affirm ring")
	fmt.Printf("%-6s %-12s %-8s %12s %10s\n", "ring", "algorithm", "settled", "resolve", "ctrl-msgs")
	for _, ring := range []int{2, 3, 4, 6, 8} {
		res, err := bench.RunE3(ring, interval.Algorithm2, 0)
		if err != nil {
			return err
		}
		fmt.Printf("%-6d %-12s %-8v %12v %10d\n",
			res.Ring, res.Algorithm, res.Settled, res.Elapsed.Round(time.Microsecond), res.Control)
		if !res.Settled {
			return fmt.Errorf("Algorithm 2 left the %d-member ring unsettled", ring)
		}
	}
	res, err := bench.RunE3(2, interval.Algorithm1, 50*time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Printf("%-6d %-12s %-8v %12s %10d   <- livelock: traffic in a %v window, never settles\n",
		res.Ring, res.Algorithm, res.Settled, "∞", res.Control, res.Elapsed)
	if res.Settled {
		return fmt.Errorf("Algorithm 1 settled the 2-member ring, want the livelock")
	}
	return nil
}

func e5() error {
	fmt.Println("E5 — message complexity of speculative chains (paper §6 fn.2: quadratic)")
	fmt.Printf("%-7s %10s %14s\n", "chain", "ctrl-msgs", "msgs/chain²")
	for _, chain := range []int{2, 4, 8, 16, 32} {
		res, err := bench.RunE5(chain)
		if err != nil {
			return err
		}
		fmt.Printf("%-7d %10d %14.3f\n", res.Chain, res.Control, float64(res.Control)/float64(chain*chain))
	}
	return nil
}

func e6() error {
	fmt.Println("E6 — call-streaming pipelines (Bacon & Strom [1], §3.1)")
	fmt.Println("workload: chain of dependent RPCs, 500µs one-way latency")
	fmt.Printf("%-7s %-10s %12s %12s %7s %9s\n", "depth", "missEvery", "pessimistic", "optimistic", "saved", "rollbacks")
	for _, depth := range []int{1, 2, 4, 8, 16} {
		for _, missEvery := range []int{0, 4} {
			res, err := bench.RunE6(depth, missEvery, 500*time.Microsecond)
			if err != nil {
				return err
			}
			fmt.Printf("%-7d %-10d %12v %12v %6.1f%% %9d\n",
				res.Depth, res.MissEvery, res.Pessimistic.Round(time.Microsecond),
				res.Optimistic.Round(time.Microsecond), res.SavedPercent, res.Rollbacks)
		}
	}
	return nil
}

func e7() error {
	fmt.Println("E7 — optimistic replication (paper §2, [5])")
	fmt.Println("workload: 10 reads; client colocated with backup; primary 1ms away; replication lags 10ms")
	fmt.Printf("%-14s %12s %12s %7s %9s\n", "conflictEvery", "pessimistic", "optimistic", "saved", "rollbacks")
	for _, conflictEvery := range []int{0, 5, 2} {
		res, err := bench.RunE7(conflictEvery, 10)
		if err != nil {
			return err
		}
		fmt.Printf("%-14d %12v %12v %6.1f%% %9d\n",
			res.ConflictEvery, res.Pessimistic.Round(time.Microsecond),
			res.Optimistic.Round(time.Microsecond), res.SavedPercent, res.Rollbacks)
	}
	return nil
}

func e8() error {
	fmt.Println("E8 — Time Warp comparison (paper §2, [14])")
	fmt.Println("workload: PHOLD, both engines verified against the sequential reference")
	fmt.Printf("%-5s %-8s %12s %12s %9s %11s %7s\n", "LPs", "events", "timewarp", "hope", "tw-rolls", "hope-rolls", "match")
	for _, lps := range []int{4, 8} {
		cfg := phold.Config{LPs: lps, InitialEvents: 2, End: 60, MaxDelay: 8, Seed: 4242}
		res, err := bench.RunE8(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-5d %-8d %12v %12v %9d %11d %7v\n",
			res.LPs, res.Events, res.TimeWarp.Round(time.Microsecond),
			res.HOPE.Round(time.Microsecond), res.TWRolls, res.HOPERolls, res.Match)
		if !res.Match {
			return fmt.Errorf("HOPE and Time Warp committed different states at %d LPs, seed %d", lps, cfg.Seed)
		}
	}
	return nil
}

func e10() error {
	fmt.Println("E10 — optimistic scientific computing (extension; [6] Optimistic Programming in PVM)")
	fmt.Println("workload: 1-D Jacobi relaxation, 3 workers × 6 cells × 12 sweeps, 500µs latency")
	fmt.Printf("%-11s %12s %10s %12s\n", "tolerance", "elapsed", "rollbacks", "max-error")
	for _, tol := range []float64{0, 0.01, 0.05, 0.2} {
		res, err := bench.RunE10Retry(tol, 500*time.Microsecond, 3)
		if err != nil {
			// Thrash-heavy tolerances occasionally hit the residual
			// premature-commit stall (DESIGN.md §4.9); report and go on.
			fmt.Printf("%-11g %12s %10s %12s   <- stalled (DESIGN.md §4.9): %v\n", tol, "—", "—", "—", err)
			continue
		}
		fmt.Printf("%-11g %12v %10d %12.3g\n", res.Tolerance, res.Elapsed.Round(time.Millisecond), res.Rollbacks, res.MaxError)
		if tol == 0 && res.MaxError != 0 {
			return fmt.Errorf("tolerance 0 committed max error %g, want the sequential result", res.MaxError)
		}
	}
	return nil
}

func e11() error {
	fmt.Println("E11 — transactions: optimism vs two-phase locking (paper §1's framing)")
	fmt.Println("workload: read-modify-write increments, store 1ms away; every run checked for lost updates")
	fmt.Printf("%-9s %-11s %12s %12s %7s %9s %7s\n", "writers", "contention", "locked", "optimistic", "saved", "retries", "ok")
	for _, writers := range []int{2, 4, 8} {
		for _, high := range []bool{false, true} {
			res, err := bench.RunE11(writers, high, time.Millisecond)
			if err != nil {
				return err
			}
			fmt.Printf("%-9d %-11s %12v %12v %6.1f%% %9d %7v\n",
				res.Writers, res.Contention, res.Locked.Round(time.Microsecond),
				res.Optimistic.Round(time.Microsecond), res.SavedPct, res.Retries, res.FinalOK)
			if !res.FinalOK {
				return fmt.Errorf("lost updates with %d writers, %s contention", writers, res.Contention)
			}
		}
	}
	return nil
}

func ablation() error {
	fmt.Println("Ablation — cycle-detection overhead on acyclic workloads (DESIGN.md §4)")
	fmt.Println("workload: the E5 chain (no cycles), where Algorithm 1 is already correct")
	fmt.Printf("%-12s %-9s %10s\n", "algorithm", "chain", "ctrl-msgs")
	for _, alg := range []interval.Algorithm{interval.Algorithm1, interval.Algorithm2} {
		for _, chain := range []int{8, 16, 32} {
			res, err := bench.RunE5Alg(chain, alg)
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %-9d %10d\n", alg, res.Chain, res.Control)
		}
	}
	fmt.Println("identical message counts: a chain never re-meets a retired assumption, so nothing is cut or confirmed")

	const jobs, reports = 20, 8
	fmt.Println()
	fmt.Println("Ablation — cycle cuts on a streamed RPC (DESIGN.md §4.9)")
	fmt.Printf("workload: rpc.StreamedWorker, %d reports, never denied, 500µs latency; mean per job over %d jobs\n", reports, jobs)
	fmt.Printf("%-38s %8s %8s %9s %7s %9s\n", "control", "guess", "replace", "cutprobe", "cutack", "protocol")
	for _, row := range []struct {
		name      string
		alg       interval.Algorithm
		revocable bool
	}{
		{"algorithm1", interval.Algorithm1, false},
		{"algorithm2, every UDO hit probed", interval.Algorithm2, true},
		{"algorithm2, affirmed members discharged", interval.Algorithm2, false},
	} {
		var guess, replace, probe, ack, total uint64
		for i := 0; i < jobs; i++ {
			st, err := bench.RunStreamedCuts(row.alg, row.revocable, reports)
			if err != nil {
				return err
			}
			guess += st.Guess
			replace += st.Replace
			probe += st.CutProbe
			ack += st.CutAck
			total += st.Total()
		}
		mean := func(n uint64) float64 { return float64(n) / jobs }
		fmt.Printf("%-38s %8.1f %8.1f %9.1f %7.1f %9.1f\n", row.name,
			mean(guess), mean(replace), mean(probe), mean(ack), mean(total))
	}
	fmt.Println("\"every UDO hit probed\" runs with a watermark set (True revocable): the parent commit's behaviour")
	return nil
}

func e9() error {
	fmt.Println("E9 — wait-freedom (paper §5 design criterion)")
	fmt.Println("primitive wall time must not scale with network latency")
	fmt.Printf("%-12s %12s %12s\n", "net-latency", "guess", "affirm")
	for _, latency := range []time.Duration{0, 500 * time.Microsecond, 5 * time.Millisecond} {
		res, err := bench.RunE9(latency, 64)
		if err != nil {
			return err
		}
		fmt.Printf("%-12v %12v %12v\n", res.Latency, res.GuessTime, res.Affirm)
	}
	return nil
}
