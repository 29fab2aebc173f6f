// Package bench implements the experiment harness: workload generators
// and parameter sweeps that regenerate every quantitative claim and
// behavioural figure of the paper's evaluation (see DESIGN.md §5 and
// EXPERIMENTS.md). Root-level benchmarks and cmd/hopebench both drive
// these runners.
package bench

import (
	"fmt"
	"sync"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/des"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/netsim"
	"github.com/hope-dist/hope/internal/phold"
	"github.com/hope-dist/hope/internal/replica"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/scicomp"
	"github.com/hope-dist/hope/internal/stability"
	"github.com/hope-dist/hope/internal/stream"
	"github.com/hope-dist/hope/internal/timewarp"
	"github.com/hope-dist/hope/internal/transport"
	"github.com/hope-dist/hope/occ"

	hope "github.com/hope-dist/hope"
)

const settleTimeout = 60 * time.Second

// ---------------------------------------------------------------------------
// E1 — RPC latency avoidance (paper §3.1, §6 "up to 70%")

// E1Result is one row of the E1 sweep.
type E1Result struct {
	Latency      time.Duration
	PageSize     int // prediction accuracy knob: smaller page ⇒ more denials
	Reports      int
	Pessimistic  time.Duration // user-visible completion, synchronous worker
	Optimistic   time.Duration // user-visible completion, streamed worker
	OptCommit    time.Duration // until the optimistic run is fully definite
	SavedPercent float64
	Rollbacks    int
}

// RunE1 measures one (latency, pageSize) cell.
func RunE1(latency time.Duration, pageSize, reports int) (E1Result, error) {
	res := E1Result{Latency: latency, PageSize: pageSize, Reports: reports}

	runWorker := func(optimistic bool) (completion, commit time.Duration, rollbacks int, err error) {
		eng := core.NewEngine(core.Config{Transport: netsim.New(netsim.Constant(latency))})
		defer eng.Shutdown()
		server, err := eng.SpawnRoot(rpc.PrintServer())
		if err != nil {
			return 0, 0, 0, err
		}
		// The worker may complete, roll back, and complete again; the
		// user-visible completion is the LAST report before quiescence.
		var mu sync.Mutex
		var lastDone time.Time
		sink := func(rpc.PageReport) {
			mu.Lock()
			lastDone = time.Now()
			mu.Unlock()
		}
		body := rpc.PessimisticWorker(server.PID(), pageSize, reports, sink)
		if optimistic {
			body = rpc.StreamedWorker(server.PID(), pageSize, reports, sink)
		}
		start := time.Now()
		worker, err := eng.SpawnRoot(body)
		if err != nil {
			return 0, 0, 0, err
		}
		if !eng.Settle(settleTimeout) {
			return 0, 0, 0, fmt.Errorf("no settle")
		}
		commit = time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		if lastDone.IsZero() {
			return 0, 0, 0, fmt.Errorf("worker never completed")
		}
		return lastDone.Sub(start), commit, worker.Snapshot().Restarts, nil
	}

	var err error
	if res.Pessimistic, _, _, err = runWorker(false); err != nil {
		return res, fmt.Errorf("pessimistic: %w", err)
	}
	if res.Optimistic, res.OptCommit, res.Rollbacks, err = runWorker(true); err != nil {
		return res, fmt.Errorf("optimistic: %w", err)
	}
	res.SavedPercent = 100 * (1 - res.Optimistic.Seconds()/res.Pessimistic.Seconds())
	return res, nil
}

// ---------------------------------------------------------------------------
// E3 — dependency cycles (paper §5.3, Figures 12–14)

// E3Result is one row of the cycle experiment.
type E3Result struct {
	Ring      int
	Algorithm interval.Algorithm
	Settled   bool          // cycle cut, everything definite
	Elapsed   time.Duration // to quiescence (Algorithm 2 only)
	Control   uint64        // control messages spent
}

// RunE3 builds the N-member mutual speculative-affirm ring from Figure 13
// and reports whether the configured algorithm resolves it. For
// Algorithm 1 the run observes the livelock for `window` and reports
// Settled=false with the traffic burned in that window.
func RunE3(ring int, alg interval.Algorithm, window time.Duration) (E3Result, error) {
	res := E3Result{Ring: ring, Algorithm: alg}
	eng := core.NewEngine(core.Config{
		Algorithm: alg,
		Transport: netsim.New(netsim.Constant(50 * time.Microsecond)),
	})
	defer eng.Shutdown()

	aids := make([]ids.AID, ring)
	for i := range aids {
		x, err := eng.NewAID()
		if err != nil {
			return res, err
		}
		aids[i] = x
	}
	procs := make([]*core.Process, ring)
	for i := 0; i < ring; i++ {
		i := i
		p, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
			ctx.Guess(aids[(i+1)%ring])
			time.Sleep(2 * time.Millisecond) // close the ring before affirming
			ctx.Affirm(aids[i])
			return nil
		})
		if err != nil {
			return res, err
		}
		procs[i] = p
	}

	start := time.Now()
	if alg == interval.Algorithm2 {
		if !eng.Settle(settleTimeout) {
			return res, fmt.Errorf("algorithm 2 did not settle on ring %d", ring)
		}
		res.Elapsed = time.Since(start)
		res.Settled = true
		for _, p := range procs {
			if !p.Snapshot().AllDefinite {
				res.Settled = false
			}
		}
	} else {
		time.Sleep(window)
		res.Elapsed = window
		res.Settled = true
		for _, p := range procs {
			if !p.Snapshot().AllDefinite {
				res.Settled = false
			}
		}
	}
	res.Control = eng.Net().Stats().Control()
	return res, nil
}

// ---------------------------------------------------------------------------
// E5 — message complexity of speculative chains (paper §6 footnote 2)

// E5Result is one row of the complexity experiment.
type E5Result struct {
	Chain   int    // number of nested guesses
	Control uint64 // control messages for the full resolve
}

// RunE5 has one process nest `chain` guesses (interval inheritance makes
// each new interval register with every live assumption), then resolves
// them all; the control-message total grows quadratically with the chain
// length, as the paper predicts.
func RunE5(chain int) (E5Result, error) {
	return RunE5Alg(chain, interval.Algorithm2)
}

// RunE5Alg is RunE5 under an explicit Control algorithm — the workload
// is acyclic, so both algorithms terminate and their difference is the
// UDO bookkeeping overhead (the ablation benchmarks use this).
func RunE5Alg(chain int, alg interval.Algorithm) (E5Result, error) {
	res := E5Result{Chain: chain}
	eng := core.NewEngine(core.Config{Algorithm: alg})
	defer eng.Shutdown()

	aids := make([]ids.AID, chain)
	for i := range aids {
		x, err := eng.NewAID()
		if err != nil {
			return res, err
		}
		aids[i] = x
	}
	if _, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		for _, x := range aids {
			ctx.Guess(x)
		}
		return nil
	}); err != nil {
		return res, err
	}
	if !eng.Settle(settleTimeout) {
		return res, fmt.Errorf("no settle before affirms")
	}
	if _, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		for _, x := range aids {
			ctx.Affirm(x)
		}
		return nil
	}); err != nil {
		return res, err
	}
	if !eng.Settle(settleTimeout) {
		return res, fmt.Errorf("no settle after affirms")
	}
	res.Control = eng.Net().Stats().Control()
	return res, nil
}

// ---------------------------------------------------------------------------
// Ablation — cut confirmation on a streamed RPC (DESIGN.md §4.9)

// RunStreamedCuts runs one never-denied rpc.StreamedWorker job of
// `reports` reports over a 500 µs network under alg and returns the
// delivered messages by kind. With revocable set the engine carries a
// stability tracker (no agent: nothing is ever covered), which makes True
// revocable, so every UDO hit is confirmed by a CutProbe round trip — what
// every engine did before an interval could discharge a member it saw
// affirmed.
func RunStreamedCuts(alg interval.Algorithm, revocable bool, reports int) (transport.Stats, error) {
	cfg := core.Config{Algorithm: alg, Transport: netsim.New(netsim.Constant(500 * time.Microsecond))}
	if revocable {
		cfg.Stability = stability.NewTracker(0)
	}
	eng := core.NewEngine(cfg)
	defer eng.Shutdown()
	server, err := eng.SpawnRoot(rpc.PrintServer())
	if err != nil {
		return transport.Stats{}, err
	}
	worker, err := eng.SpawnRoot(rpc.StreamedWorker(server.PID(), 1000, reports, func(rpc.PageReport) {}))
	if err != nil {
		return transport.Stats{}, err
	}
	if !eng.Settle(settleTimeout) {
		return transport.Stats{}, fmt.Errorf("no settle")
	}
	if st := worker.Snapshot(); !st.Completed || !st.AllDefinite {
		return transport.Stats{}, fmt.Errorf("worker not committed: %+v", st)
	}
	return eng.Net().Stats(), nil
}

// ---------------------------------------------------------------------------
// E6 — call-streaming pipelines (Bacon & Strom, §3.1)

// E6Result is one row of the pipeline experiment.
type E6Result struct {
	Depth        int
	MissEvery    int // 0 = perfect predictions
	Latency      time.Duration
	Pessimistic  time.Duration // user-visible completion, synchronous
	Optimistic   time.Duration // user-visible completion, streamed
	OptCommit    time.Duration // until fully definite
	SavedPercent float64
	Rollbacks    int
}

// RunE6 measures one pipeline configuration.
func RunE6(depth, missEvery int, latency time.Duration) (E6Result, error) {
	return RunE6Jitter(depth, missEvery, latency, false)
}

// RunE6Jitter is RunE6 with optional uniform jitter in [latency/2,
// latency] instead of a constant delay (the ablation benchmarks use it
// to isolate the cost of FIFO enforcement under reordering).
func RunE6Jitter(depth, missEvery int, latency time.Duration, jitter bool) (E6Result, error) {
	res := E6Result{Depth: depth, MissEvery: missEvery, Latency: latency}

	step := func(v int) int { return v*3 + 1 }
	var mispredict func(int) bool
	if missEvery > 0 {
		mispredict = func(stage int) bool { return stage%missEvery == missEvery-1 }
	}

	run := func(optimistic bool) (completion, commit time.Duration, rollbacks int, err error) {
		var model netsim.LatencyModel = netsim.Constant(latency)
		if jitter {
			model = netsim.NewUniform(latency/2, latency, 7)
		}
		eng := core.NewEngine(core.Config{Transport: netsim.New(model)})
		defer eng.Shutdown()
		server, err := eng.SpawnRoot(stream.Server(step))
		if err != nil {
			return 0, 0, 0, err
		}
		chain := stream.Chain{Server: server.PID(), Depth: depth, Step: step, Mispredict: mispredict}
		var mu sync.Mutex
		var got *int
		var lastDone time.Time
		start := time.Now()
		client, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
			runFn := chain.RunPessimistic
			if optimistic {
				runFn = chain.RunOptimistic
			}
			v, err := runFn(ctx, 1)
			if err != nil {
				return err
			}
			mu.Lock()
			got = &v
			lastDone = time.Now()
			mu.Unlock()
			return nil
		})
		if err != nil {
			return 0, 0, 0, err
		}
		if !eng.Settle(settleTimeout) {
			return 0, 0, 0, fmt.Errorf("no settle")
		}
		commit = time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		if got == nil {
			return 0, 0, 0, fmt.Errorf("client never finished")
		}
		if want := chain.Expected(1); *got != want {
			return 0, 0, 0, fmt.Errorf("result %d, want %d", *got, want)
		}
		return lastDone.Sub(start), commit, client.Snapshot().Restarts, nil
	}

	var err error
	if res.Pessimistic, _, _, err = run(false); err != nil {
		return res, fmt.Errorf("pessimistic: %w", err)
	}
	if res.Optimistic, res.OptCommit, res.Rollbacks, err = run(true); err != nil {
		return res, fmt.Errorf("optimistic: %w", err)
	}
	res.SavedPercent = 100 * (1 - res.Optimistic.Seconds()/res.Pessimistic.Seconds())
	return res, nil
}

// ---------------------------------------------------------------------------
// E7 — optimistic replication (paper §2, [5])

// E7Result is one row of the replication experiment.
type E7Result struct {
	ConflictEvery int // a conflicting write precedes every k-th read (0 = none)
	Reads         int
	Pessimistic   time.Duration // remote reads
	Optimistic    time.Duration // local reads + verification
	SavedPercent  float64
	Rollbacks     int
}

// RunE7 measures replicated read latency: the client sits with the
// backup (zero local latency); the primary is a millisecond away, and
// replication to the backup lags far behind write acknowledgements, so
// a read issued right after a conflicting (synchronous) write
// deterministically observes a stale backup.
func RunE7(conflictEvery, reads int) (E7Result, error) {
	res := E7Result{ConflictEvery: conflictEvery, Reads: reads}
	const (
		local       = 0 // colocated: synchronous delivery
		remote      = 1 * time.Millisecond
		replLag     = 10 * time.Millisecond
		settleExtra = 2 * replLag // the lagging updates must drain
	)

	run := func(optimistic bool) (time.Duration, int, error) {
		sites := netsim.NewSites(local, remote)
		lagged := netsim.NewOverride(sites)
		eng := core.NewEngine(core.Config{Transport: netsim.New(lagged)})
		defer eng.Shutdown()

		backup, err := eng.SpawnRoot(replica.Backup())
		if err != nil {
			return 0, 0, err
		}
		primary, err := eng.SpawnRoot(replica.Primary([]ids.PID{backup.PID()}))
		if err != nil {
			return 0, 0, err
		}
		sites.Place(primary.PID(), 0)
		sites.Place(backup.PID(), 1)
		lagged.SetPair(primary.PID(), backup.PID(), replLag)
		client := replica.Client{Primary: primary.PID(), Backup: backup.PID()}

		// Timing must live outside the body: a rolled-back body replays
		// its prefix in microseconds, so in-body clocks lie. The read
		// phase is bracketed by wall-clock marks set through the sink.
		var mu sync.Mutex
		var readsStart, lastDone time.Time
		reader, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
			seq := 0
			if err := client.Put(ctx, "k", 1, seq); err != nil {
				return err
			}
			seq++
			// Wait for replication so the run starts from a fresh backup.
			for {
				_, ver, err := client.GetLocal(ctx, "k", seq)
				if err != nil {
					return err
				}
				seq++
				if ver >= 1 {
					break
				}
			}
			mu.Lock()
			if readsStart.IsZero() {
				readsStart = time.Now()
			}
			mu.Unlock()
			for i := 0; i < reads; i++ {
				if conflictEvery > 0 && i%conflictEvery == conflictEvery-1 {
					// A committed write the lagging replica has not seen:
					// the next optimistic read is provably stale.
					if err := client.Put(ctx, "k", 100+i, seq); err != nil {
						return err
					}
					seq++
				}
				var err error
				if optimistic {
					_, err = client.GetOptimistic(ctx, "k", 10000+i)
				} else {
					_, err = client.Get(ctx, "k", 10000+i)
				}
				if err != nil {
					return err
				}
			}
			mu.Lock()
			lastDone = time.Now()
			mu.Unlock()
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		sites.Place(reader.PID(), 1)
		if !eng.Settle(settleTimeout + settleExtra) {
			return 0, 0, fmt.Errorf("no settle")
		}
		mu.Lock()
		defer mu.Unlock()
		if lastDone.IsZero() {
			return 0, 0, fmt.Errorf("reader never finished")
		}
		return lastDone.Sub(readsStart), reader.Snapshot().Restarts, nil
	}

	var err error
	if res.Pessimistic, _, err = run(false); err != nil {
		return res, fmt.Errorf("pessimistic: %w", err)
	}
	if res.Optimistic, res.Rollbacks, err = run(true); err != nil {
		return res, fmt.Errorf("optimistic: %w", err)
	}
	res.SavedPercent = 100 * (1 - res.Optimistic.Seconds()/res.Pessimistic.Seconds())
	return res, nil
}

// ---------------------------------------------------------------------------
// E8 — Time Warp comparison (paper §2, [14])

// E8Result is one row of the simulator comparison.
type E8Result struct {
	LPs       int
	Events    int // committed events (identical across engines)
	TimeWarp  time.Duration
	HOPE      time.Duration
	TWRolls   int
	HOPERolls int
	Match     bool // both equal the sequential reference
}

// RunE8 runs the same PHOLD workload under the dedicated Time Warp
// kernel and under HOPE, checking both against the sequential reference.
func RunE8(cfg phold.Config) (E8Result, error) {
	res := E8Result{LPs: cfg.LPs}
	want := phold.Sequential(cfg)
	res.Events = want.Processed

	twRes, twStats := timewarp.New(cfg).Run()
	res.TimeWarp = twStats.Elapsed
	res.TWRolls = twStats.Rollbacks

	eng := core.NewEngine(core.Config{})
	defer eng.Shutdown()
	start := time.Now()
	cluster, err := des.NewCluster(eng, cfg)
	if err != nil {
		return res, err
	}
	if !eng.Settle(settleTimeout) {
		return res, fmt.Errorf("HOPE DES did not settle")
	}
	res.HOPE = time.Since(start)
	res.HOPERolls = cluster.Rollbacks()
	res.Match = twRes.Equal(want) && cluster.Result().Equal(want)
	return res, nil
}

// ---------------------------------------------------------------------------
// E9 — wait-freedom of the primitives (paper §5 design criterion)

// E9Result is one row of the wait-freedom experiment.
type E9Result struct {
	Latency   time.Duration // one-way network latency
	GuessTime time.Duration // mean wall time of one guess primitive
	Affirm    time.Duration // mean wall time of one affirm primitive
}

// RunE9 measures primitive latency under the given network latency: the
// means must not scale with the network, demonstrating that no primitive
// waits for a remote reply.
func RunE9(latency time.Duration, iters int) (E9Result, error) {
	res := E9Result{Latency: latency}
	eng := core.NewEngine(core.Config{Transport: netsim.New(netsim.Constant(latency))})
	defer eng.Shutdown()

	aids := make([]ids.AID, iters)
	for i := range aids {
		x, err := eng.NewAID()
		if err != nil {
			return res, err
		}
		aids[i] = x
	}

	var mu sync.Mutex
	var guessTotal, affirmTotal time.Duration
	doneCh := make(chan struct{})
	if _, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		for _, x := range aids {
			t0 := time.Now()
			ctx.Guess(x)
			dt := time.Since(t0)
			mu.Lock()
			guessTotal += dt
			mu.Unlock()
		}
		close(doneCh)
		return nil
	}); err != nil {
		return res, err
	}
	if _, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		for _, x := range aids {
			t0 := time.Now()
			ctx.Affirm(x)
			dt := time.Since(t0)
			mu.Lock()
			affirmTotal += dt
			mu.Unlock()
		}
		return nil
	}); err != nil {
		return res, err
	}
	<-doneCh
	if !eng.Settle(settleTimeout) {
		return res, fmt.Errorf("no settle")
	}
	mu.Lock()
	defer mu.Unlock()
	res.GuessTime = guessTotal / time.Duration(iters)
	res.Affirm = affirmTotal / time.Duration(iters)
	return res, nil
}

// ---------------------------------------------------------------------------
// E10 — optimistic scientific computing (extension; paper [6])

// E10Result is one row of the stencil experiment.
type E10Result struct {
	Tolerance float64
	Latency   time.Duration
	Elapsed   time.Duration
	Rollbacks int
	MaxError  float64 // committed result vs the lockstep reference
}

// RunE10Retry is RunE10 with up to `attempts` retries when a run stalls
// on the residual premature-commit race documented in DESIGN.md §4.9 —
// rollback-storm-heavy tolerances hit it with small probability.
func RunE10Retry(tolerance float64, latency time.Duration, attempts int) (E10Result, error) {
	var (
		res E10Result
		err error
	)
	for i := 0; i < attempts; i++ {
		res, err = RunE10(tolerance, latency)
		if err == nil {
			return res, nil
		}
	}
	return res, err
}

// RunE10 runs the optimistic Jacobi relaxation at the given boundary
// prediction tolerance and verifies the committed result against the
// sequential reference.
func RunE10(tolerance float64, latency time.Duration) (E10Result, error) {
	res := E10Result{Tolerance: tolerance, Latency: latency}
	cfg := scicomp.Config{
		Workers:        3,
		CellsPerWorker: 6,
		Iterations:     12,
		Tolerance:      tolerance,
		Window:         4,
	}
	want := scicomp.Sequential(cfg)
	got, rollbacks, elapsed, err := scicomp.Run(cfg, core.Config{Transport: netsim.New(netsim.Constant(latency))})
	if err != nil {
		return res, err
	}
	res.Elapsed = elapsed
	res.Rollbacks = rollbacks
	res.MaxError = scicomp.MaxError(got, want)
	if tolerance == 0 && res.MaxError != 0 {
		return res, fmt.Errorf("exact tolerance committed max error %v", res.MaxError)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// E11 — optimistic concurrency control vs two-phase locking (paper §1)

// E11Result is one row of the transaction experiment.
type E11Result struct {
	Writers    int
	Contention string // "low" (disjoint keys) or "high" (one hot key)
	Locked     time.Duration
	Optimistic time.Duration
	SavedPct   float64
	Retries    int
	FinalOK    bool // serializability check passed
}

// RunE11 runs `writers` read-modify-write transactions under 2PL and
// under OCC, both against a store `latency` away, and checks the final
// counter values for lost updates.
func RunE11(writers int, highContention bool, latency time.Duration) (E11Result, error) {
	res := E11Result{Writers: writers, Contention: "low"}
	if highContention {
		res.Contention = "high"
	}

	key := func(w int) string {
		if highContention {
			return "hot"
		}
		return fmt.Sprintf("k%d", w)
	}

	run := func(optimistic bool) (time.Duration, int, bool, error) {
		eng := core.NewEngine(core.Config{Transport: netsim.New(netsim.Constant(latency))})
		defer eng.Shutdown()
		// The bench drives the public API surface through the internal
		// engine it already manages; occ only needs the PIDs.
		store, err := eng.SpawnRoot(core.Body(occ.Store()))
		if err != nil {
			return 0, 0, false, err
		}
		locks, err := eng.SpawnRoot(core.Body(occ.LockServer()))
		if err != nil {
			return 0, 0, false, err
		}

		start := time.Now()
		procs := make([]*core.Process, writers)
		for w := 0; w < writers; w++ {
			w := w
			body := func(ctx *core.Ctx) error {
				seq := 0
				txn := func(tx *occ.Txn) error {
					v, _, err := tx.Get(key(w))
					if err != nil {
						return err
					}
					tx.Set(key(w), v+1)
					return nil
				}
				if optimistic {
					client := occ.Client{Store: store.PID()}
					return client.Run((*hope.Ctx)(ctx), &seq, txn)
				}
				client := occ.LockedClient{Store: store.PID(), Locks: locks.PID()}
				return client.Run((*hope.Ctx)(ctx), &seq, []string{key(w)}, txn)
			}
			p, err := eng.SpawnRoot(body)
			if err != nil {
				return 0, 0, false, err
			}
			procs[w] = p
		}
		if !eng.Settle(settleTimeout) {
			return 0, 0, false, fmt.Errorf("no settle")
		}
		elapsed := time.Since(start)
		retries := 0
		for _, p := range procs {
			st := p.Snapshot()
			if st.Err != nil {
				return 0, 0, false, st.Err
			}
			retries += st.Restarts
		}

		// Serializability check: each key's final value must equal its
		// number of writers.
		okCh := make(chan bool, 1)
		if _, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
			seq := 0
			client := occ.Client{Store: store.PID()}
			ok := true
			err := client.Run((*hope.Ctx)(ctx), &seq, func(tx *occ.Txn) error {
				counts := make(map[string]int, writers)
				for w := 0; w < writers; w++ {
					counts[key(w)]++
				}
				for k, want := range counts {
					v, _, err := tx.Get(k)
					if err != nil {
						return err
					}
					if v != want {
						ok = false
					}
				}
				return nil
			})
			select {
			case okCh <- ok:
			default:
			}
			return err
		}); err != nil {
			return 0, 0, false, err
		}
		if !eng.Settle(settleTimeout) {
			return 0, 0, false, fmt.Errorf("no settle after check")
		}
		return elapsed, retries, <-okCh, nil
	}

	var err error
	var lockedOK, optOK bool
	if res.Locked, _, lockedOK, err = run(false); err != nil {
		return res, fmt.Errorf("locked: %w", err)
	}
	if res.Optimistic, res.Retries, optOK, err = run(true); err != nil {
		return res, fmt.Errorf("optimistic: %w", err)
	}
	res.FinalOK = lockedOK && optOK
	res.SavedPct = 100 * (1 - res.Optimistic.Seconds()/res.Locked.Seconds())
	return res, nil
}
