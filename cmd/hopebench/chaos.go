package main

// The chaos experiment is E1's adversarial, distributed sibling: N
// hoped print servers in separate OS processes, every TCP link routed
// through a fault-injecting proxy (internal/faultwire), a randomized
// fault plan severing, partitioning, and corrupting the links — and by
// default SIGKILLing one durable node mid-storm and restarting it from
// its WAL. The run passes only if the invariants in internal/harness
// hold: quiescence, verdict agreement, byte-stable committed layout on
// every server, no FIFO inversion at the delivery boundary.
//
// Everything derives from the seed. A failing run prints the seed and
// the full fault plan; re-running with --seed replays it exactly.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"github.com/hope-dist/hope/internal/faultwire"
	"github.com/hope-dist/hope/internal/harness"
	"github.com/hope-dist/hope/internal/oracle"
)

func chaosExperiment(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	nodes := fs.Int("nodes", 3, "hoped server processes")
	seed := fs.Int64("seed", 0, "single seed (overrides --seeds)")
	seeds := fs.String("seeds", "", "comma-separated seeds (default $HOPE_CHAOS_SEEDS, then 1)")
	span := fs.Duration("span", 2*time.Second, "fault storm: storm duration")
	kill := fs.Bool("kill", true, "fault storm: SIGKILL+restart one durable node mid-storm")
	permKill := fs.Bool("perm-kill", false, "fault storm: SIGKILL one node permanently — no restart; the liveness layer must resolve its orphans (overrides --kill)")
	churn := fs.Bool("churn", false, "membership churn storm instead of a fault storm: a dynamic cluster loses one member to SIGKILL mid-speculation and absorbs a replacement, with sharded-ownership invariants")
	hopedPath := fs.String("hoped", "", "path to the hoped binary (default: $PATH, then `go build`)")
	pageSize := fs.Int("pagesize", 3, "page size (smaller ⇒ more mispredictions)")
	reports := fs.Int("reports", 48, "reports per server workload")
	watermark := fs.Bool("watermark", false, "churn: run every member with the stability watermark and assert the frontier resumes advancing after the churn")
	survive := fs.Bool("survive", false, "churn: run every member with hoped --data-root (state survival) — the killed member's AID shard must be adopted (not denied) and its user processes reborn by deterministic replay on the ring-designated survivors, the WAL-hosted tables must partition by the final ring, and the doomed workload must complete with exactly one final outcome")
	jsonOut := fs.String("json", "", "churn: also write the results as JSON to this file")
	planOnly := fs.Bool("plan", false, "fault storm: print each seed's fault plan and exit (no processes spawned)")
	verbose := fs.Bool("v", false, "narrate the storm as it runs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A flag counts as given even when set to its default value, so that
	// neither storm silently ignores a flag only the other one reads.
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for _, f := range []struct {
		name  string
		churn bool
	}{
		{"plan", false}, {"span", false}, {"kill", false}, {"perm-kill", false},
		{"json", true}, {"watermark", true}, {"survive", true},
	} {
		switch {
		case given[f.name] && f.churn && !*churn:
			return fmt.Errorf("--%s needs --churn: only the membership-churn storm runs a cluster", f.name)
		case given[f.name] && !f.churn && *churn:
			return fmt.Errorf("--%s is a fault-storm flag: --churn does not use it", f.name)
		}
	}

	// --seed wins when given explicitly (0 is a legal seed, so test
	// set-ness rather than the value).
	var seedList []int64
	if given["seed"] {
		seedList = []int64{*seed}
	} else {
		spec := *seeds
		if spec == "" {
			spec = os.Getenv("HOPE_CHAOS_SEEDS")
		}
		var err error
		if seedList, err = oracle.ParseSeeds(spec, []int64{1}); err != nil {
			return fmt.Errorf("chaos seeds: %w", err)
		}
	}

	if *planOnly {
		for _, s := range seedList {
			if *permKill {
				fmt.Print(faultwire.GenPlanPerm(s, *nodes, *span))
			} else {
				fmt.Print(faultwire.GenPlan(s, *nodes, *span, *kill))
			}
		}
		if *permKill {
			// The detector and lease timings decide when a permanent death
			// is diagnosed and its orphaned assumptions auto-denied — print
			// them alongside the fault schedule so a hanging run can be
			// judged against the clock it is actually on.
			suspect, dead, lease := harness.LivenessTimings(*span)
			fmt.Printf("liveness: suspect-after=%v dead-after=%v lease=%v\n", suspect, dead, lease)
		}
		return nil
	}

	bin, cleanup, err := resolveHoped(*hopedPath)
	if err != nil {
		return err
	}
	defer cleanup()
	setup := harness.Setup{Nodes: *nodes, HopedBin: bin, PageSize: *pageSize, Reports: *reports}
	if *verbose {
		setup.Log = os.Stderr
	}
	if *churn {
		return churnStorms(harness.ChurnConfig{Setup: setup, Watermark: *watermark, Survive: *survive}, seedList, *jsonOut)
	}
	return faultStorms(harness.Config{Setup: setup, Span: *span, Kill: *kill, PermKill: *permKill}, seedList)
}

// faultStorms runs one fault storm per seed.
func faultStorms(cfg harness.Config, seedList []int64) error {
	fmt.Println("CHAOS — multi-node fault storm over loopback TCP proxies")
	fmt.Printf("workload: %d reports × %d servers, pageSize %d, span %v, kill=%v, perm-kill=%v\n",
		cfg.Reports, cfg.Nodes, cfg.PageSize, cfg.Span, cfg.Kill, cfg.PermKill)
	fmt.Printf("%-12s %10s %10s %10s %10s %10s %10s\n",
		"seed", "elapsed", "rollbacks", "reconnects", "resends", "crc-errs", "refused")
	for _, s := range seedList {
		cfg.Seed = s
		res, err := harness.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos seed %d FAILED: %v\nreplay: hopebench chaos --nodes %d --span %v --kill=%v --perm-kill=%v --seed %d\n%s",
				s, err, cfg.Nodes, cfg.Span, cfg.Kill, cfg.PermKill, s, res.Plan)
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var refused uint64
		for _, ps := range res.Proxies {
			refused += ps.Refused
		}
		fmt.Printf("%-12d %10v %10d %10d %10d %10d %10d\n",
			s, res.Elapsed.Round(time.Millisecond), res.Rollbacks,
			res.Wire.Reconnects, res.Wire.Resends, res.Wire.CRCErrors, refused)
		if res.Recovered != "" {
			fmt.Printf("  %s\n", res.Recovered)
		}
		if res.PermKilled != 0 {
			fmt.Printf("  node %d permanently dead: %d assumptions auto-denied, wire %v\n",
				res.PermKilled, res.AutoDenied, res.Wire)
		}
	}
	if cfg.PermKill {
		fmt.Println("all invariants held: quiescence, verdict agreement, sequential layouts, per-pair FIFO, liveness (no dead-owned speculation)")
	} else {
		fmt.Println("all invariants held: quiescence, verdict agreement, sequential layouts, per-pair FIFO")
	}
	return nil
}

// churnRun is one seed's churn storm, serialized to --json
// (BENCH_cluster.json).
type churnRun struct {
	Seed        int64   `json:"seed"`
	Nodes       int     `json:"nodes"`
	Killed      int     `json:"killed"`
	Joined      int     `json:"joined"`
	DetectP50NS int64   `json:"handoff_detect_p50_ns"`
	DetectP99NS int64   `json:"handoff_detect_p99_ns"`
	ResolveNS   int64   `json:"handoff_resolve_ns"`
	JoinLagNS   int64   `json:"join_absorb_ns"`
	JoinShare   float64 `json:"join_ring_share"`
	Rollbacks   int     `json:"rollbacks"`
	RollbackPct float64 `json:"rollback_rate_pct"`
	AutoDenied  int64   `json:"auto_denied"`
	FinalEpoch  uint64  `json:"final_epoch"`
	Watermark   bool    `json:"watermark,omitempty"`
	StableFront string  `json:"stable_frontier,omitempty"`
	StableLagNS int64   `json:"stable_resume_ns,omitempty"`
	Survive     bool    `json:"survive,omitempty"`
	Adopted     int     `json:"adopted,omitempty"`
	AdoptNS     int64   `json:"adopt_latency_ns,omitempty"`
	TplProcs    int     `json:"transplanted,omitempty"`
	TplNS       int64   `json:"transplant_adopt_latency_ns,omitempty"`
	TplOutcomes int     `json:"transplant_final_outcomes,omitempty"`
	ElapsedNS   int64   `json:"elapsed_ns"`
}

type churnReport struct {
	Benchmark string     `json:"benchmark"`
	Setup     string     `json:"setup"`
	Command   string     `json:"command"`
	Date      string     `json:"date"`
	Runs      []churnRun `json:"runs"`
}

// churnStorms runs one membership-churn storm per seed: dynamic
// cluster from one seed node, SIGKILL of a member mid-speculation,
// replacement join, ownership invariants over the final views.
func churnStorms(cfg harness.ChurnConfig, seedList []int64, jsonOut string) error {
	nodes, reports := cfg.Nodes, cfg.Reports
	fmt.Println("CHAOS --churn — membership churn over a dynamic hoped cluster")
	fmt.Printf("workload: %d reports × %d members, pageSize %d; SIGKILL one member mid-speculation, join a replacement\n",
		reports, nodes, cfg.PageSize)

	report := churnReport{
		Benchmark: "Cluster churn: ownership handoff latency + rollback cost, cmd/hopebench chaos --churn",
		Setup: fmt.Sprintf("%d-node dynamic cluster from one seed, %d-report workload per member; "+
			"one member SIGKILLed mid-speculation, one replacement joined; "+
			"detect = kill → survivor's dead view, resolve = kill → orphaned speculation denied and quiesced",
			nodes, reports),
		Command: "hopebench chaos --churn [--nodes N] [--seed S] --json ...",
		Date:    time.Now().Format("2006-01-02"),
	}
	fmt.Printf("%-12s %10s %12s %12s %12s %10s %10s %8s %8s\n",
		"seed", "elapsed", "detect-p50", "detect-p99", "resolve", "join-lag", "share", "rollbk", "denied")
	for _, s := range seedList {
		cfg.Seed = s
		res, err := harness.RunChurn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "churn seed %d FAILED: %v\nreplay: hopebench chaos --churn --nodes %d --seed %d --reports %d --watermark=%v --survive=%v\n",
				s, err, nodes, s, reports, cfg.Watermark, cfg.Survive)
			return fmt.Errorf("seed %d: %w", s, err)
		}
		// Rollback rate: worker restarts per report across every
		// workload the storm drove (n workloads × reports each).
		rate := 100 * float64(res.Rollbacks) / float64(nodes*reports)
		report.Runs = append(report.Runs, churnRun{
			Seed: s, Nodes: nodes, Killed: res.Killed, Joined: res.Joined,
			DetectP50NS: res.DetectP50.Nanoseconds(), DetectP99NS: res.DetectP99.Nanoseconds(),
			ResolveNS: res.Resolve.Nanoseconds(), JoinLagNS: res.JoinLag.Nanoseconds(),
			JoinShare: res.JoinShare, Rollbacks: res.Rollbacks, RollbackPct: rate,
			AutoDenied: res.AutoDenied, FinalEpoch: res.FinalEpoch,
			Watermark: cfg.Watermark, StableFront: res.StableFrontier, StableLagNS: res.StableLag.Nanoseconds(),
			Survive: cfg.Survive, Adopted: res.Adopted, AdoptNS: res.AdoptLatency.Nanoseconds(),
			TplProcs: res.Transplanted,
			TplNS:    res.TransplantLatency.Nanoseconds(), TplOutcomes: res.TransplantOutcomes,
			ElapsedNS: res.Elapsed.Nanoseconds(),
		})
		fmt.Printf("%-12d %10v %12v %12v %12v %10v %9.1f%% %8d %8d\n",
			s, res.Elapsed.Round(time.Millisecond),
			res.DetectP50.Round(time.Millisecond), res.DetectP99.Round(time.Millisecond),
			res.Resolve.Round(time.Millisecond), res.JoinLag.Round(time.Millisecond),
			100*res.JoinShare, res.Rollbacks, res.AutoDenied)
		fmt.Printf("  killed node %d, joined node %d, final epoch %d live %v, rollback rate %.1f%%\n",
			res.Killed, res.Joined, res.FinalEpoch, res.FinalLive, rate)
		if cfg.Watermark {
			fmt.Printf("  watermark survived churn: frontier %s at e%d, resumed %v after join agreement\n",
				res.StableFrontier, res.FinalEpoch, res.StableLag.Round(time.Millisecond))
		}
		if cfg.Survive {
			fmt.Printf("  shard migrated: %d machine(s) adopted from node %d's WAL, adopt latency %v\n",
				res.Adopted, res.Killed, res.AdoptLatency.Round(time.Millisecond))
			fmt.Printf("  processes transplanted: %d reborn off node %d, adopt latency %v, doomed workload reached %d final outcome(s)\n",
				res.Transplanted, res.Killed, res.TransplantLatency.Round(time.Millisecond), res.TransplantOutcomes)
		}
	}
	fmt.Println("all invariants held: view agreement, sharded ownership (agreed ring, live owners),")
	fmt.Println("liveness (no dead-owned speculation), verdict agreement, sequential layouts, per-pair FIFO")
	if cfg.Survive {
		fmt.Println("migration: every survivor adopted its ring slice, hosted tables partition by the final ring, sequential page layouts held")
		fmt.Println("transplant: every corpse process reborn exactly once at its ring owner, doomed workload completed with one final outcome")
	}

	if jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

// resolveHoped finds or builds the hoped binary: explicit flag, $PATH,
// then `go build ./cmd/hoped` into a temp dir (requires running from
// the repository root).
func resolveHoped(explicit string) (bin string, cleanup func(), err error) {
	cleanup = func() {}
	if explicit != "" {
		return explicit, cleanup, nil
	}
	if p, err := exec.LookPath("hoped"); err == nil {
		return p, cleanup, nil
	}
	dir, err := os.MkdirTemp("", "hopebench-chaos-*")
	if err != nil {
		return "", cleanup, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	bin = filepath.Join(dir, "hoped")
	build := exec.Command("go", "build", "-o", bin, "./cmd/hoped")
	if out, err := build.CombinedOutput(); err != nil {
		cleanup()
		return "", func() {}, fmt.Errorf("building hoped (pass --hoped or run from the repo root): %v\n%s", err, out)
	}
	return bin, cleanup, nil
}
