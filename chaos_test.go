package hope_test

// Chaos soak: randomized programs churn guesses, speculative affirms,
// denials, tainted messages, and speculative spawns under jittered
// delivery, across several seeds. The assertions are the system-wide
// invariants (shared with the multi-node wire harness via
// internal/oracle), not specific outcomes:
//
//  1. the system reaches quiescence once every assumption is decided;
//  2. every surviving process is definite and its retained guess results
//     match the assumptions' decided verdicts;
//  3. processes terminated by rollback are exactly those spawned under
//     speculation that failed.
//
// TestChaosSoak runs over the engine's jittered delivery model;
// TestChaosSoakFaultNet runs the same workload through a faultwire.Net
// that drops, duplicates, corrupts, delays, and partitions the traffic
// on a seed-deterministic schedule.
//
// Seeds default to 100..105 and can be overridden for replay or wider
// sweeps: HOPE_CHAOS_SEEDS="1,2,3" go test -run Chaos .

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hope "github.com/hope-dist/hope"
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/faultwire"
	"github.com/hope-dist/hope/internal/oracle"
	"github.com/hope-dist/hope/internal/trace"
)

// chaosSeeds resolves the seed list: HOPE_CHAOS_SEEDS, or 100..105.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	seeds, err := oracle.ParseSeeds(os.Getenv("HOPE_CHAOS_SEEDS"),
		[]int64{100, 101, 102, 103, 104, 105})
	if err != nil {
		t.Fatalf("HOPE_CHAOS_SEEDS: %v", err)
	}
	return seeds
}

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	var terminated atomic.Int64
	defer requireTerminations(t, &terminated)
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			term := &terminations{}
			sys := term.attach(hope.New(hope.WithJitterLatency(0, 500*time.Microsecond, seed), hope.WithTracer(term)))
			defer sys.Shutdown()
			terminated.Add(int64(chaosRun(t, seed, sys, term)))
		})
	}
}

// TestChaosSoakFaultNet is the adversarial variant: the same randomized
// workload, but every message crosses a faultwire.Net configured from
// the seed — heavy drop/duplicate/corrupt rates, jittered delays, and
// two partition windows that cut the PID space into three sites
// mid-run. The invariants must hold unchanged; a failure prints the
// seed (in the subtest name) and the injected-fault counters for
// replay.
func TestChaosSoakFaultNet(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	var terminated atomic.Int64
	defer requireTerminations(t, &terminated)
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Short span so the partition windows overlap the workload
			// (the soak itself settles in tens of milliseconds).
			const span = 300 * time.Millisecond
			start := time.Now()
			fw := faultwire.New(nil, faultwire.Config{
				Seed:       seed,
				Drop:       0.15,
				Dup:        0.10,
				Corrupt:    0.10,
				DelayMax:   300 * time.Microsecond,
				Retransmit: 100 * time.Microsecond,
				SiteOf:     faultwire.SplitSites(3),
				Partitions: faultwire.GenWindows(seed, 3, 2, span),
			})
			term := &terminations{}
			sys := term.attach(hope.New(hope.WithTransport(fw), hope.WithTracer(term)))
			defer sys.Shutdown()
			terminated.Add(int64(chaosRun(t, seed, sys, term)))
			// Let the whole window schedule play out before reading the
			// counters; a window can open after the workload settles, and
			// its timers can fire late when the test host is loaded, so
			// poll rather than sleep a fixed grace period.
			if rest := span - time.Since(start); rest > 0 {
				time.Sleep(rest)
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				fs := fw.FaultStats()
				if fs.Partitions == 2 && fs.Heals == 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("partition schedule did not run to completion: %v", fs)
					break
				}
				time.Sleep(time.Millisecond)
			}
			fs := fw.FaultStats()
			t.Logf("faults: %v", fs)
			if fs.Dropped == 0 || fs.Corrupted == 0 {
				t.Errorf("fault net injected nothing: %v", fs)
			}
		})
	}
}

// terminations is a tracer that keeps the handle of every process the
// runtime terminates. A terminated process is reaped and leaves
// Processes(), so the handle is taken when the Terminate event is
// emitted: the process is still live then, and its Snapshot stays
// readable after it is reaped.
type terminations struct {
	sys    atomic.Pointer[hope.System]
	mu     sync.Mutex
	procs  []*hope.Process
	missed []hope.PID
}

// attach binds the tracer to the system it was installed in.
func (w *terminations) attach(sys *hope.System) *hope.System {
	w.sys.Store(sys)
	return sys
}

// Emit implements hope.Tracer.
func (w *terminations) Emit(ev trace.Event) {
	if ev.Kind != trace.Terminate {
		return
	}
	p := w.sys.Load().Process(ev.PID)
	w.mu.Lock()
	defer w.mu.Unlock()
	if p == nil {
		w.missed = append(w.missed, ev.PID)
		return
	}
	w.procs = append(w.procs, p)
}

// requireTerminations fails a soak in which no process was terminated:
// the termination invariant would then have been checked on nothing.
func requireTerminations(t *testing.T, n *atomic.Int64) {
	t.Helper()
	if !t.Failed() && n.Load() == 0 {
		t.Fatal("no process was terminated across the soak's seeds")
	}
}

// chaosRun drives the randomized workload derived from seed against an
// already-constructed system whose tracer is term, checks the shared
// invariants, and returns how many processes were terminated.
func chaosRun(t *testing.T, seed int64, sys *hope.System, term *terminations) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	const (
		nAIDs    = 8
		nWorkers = 6
	)

	aids := make([]hope.AID, nAIDs)
	verdict := make(map[hope.AID]bool, nAIDs)
	for i := range aids {
		x, err := sys.NewAID()
		if err != nil {
			t.Fatalf("NewAID: %v", err)
		}
		aids[i] = x
		verdict[x] = rng.Intn(2) == 0
	}

	// Echo service: workers bounce tainted messages off it.
	echo, err := sys.Spawn(func(ctx *hope.Ctx) error {
		for {
			v, from, err := ctx.Recv()
			if err != nil {
				return err
			}
			ctx.Send(from, v)
		}
	})
	if err != nil {
		t.Fatalf("spawn echo: %v", err)
	}

	// Workers: random interleavings of guesses, echo round trips, and
	// speculative child spawns.
	var mu sync.Mutex
	outcomes := make(map[int][]oracle.Outcome)
	plans := make([][]int, nWorkers) // op stream per worker: ≥0 = guess aid index, -1 = echo, -2 = spawn
	for w := range plans {
		n := 3 + rng.Intn(6)
		ops := make([]int, n)
		for i := range ops {
			switch r := rng.Intn(10); {
			case r < 6:
				ops[i] = rng.Intn(nAIDs)
			case r < 8:
				ops[i] = -1
			default:
				ops[i] = -2
			}
		}
		plans[w] = ops
	}

	workers := make([]*hope.Process, nWorkers)
	for w := 0; w < nWorkers; w++ {
		w := w
		ops := plans[w]
		p, err := sys.Spawn(func(ctx *hope.Ctx) error {
			var got []oracle.Outcome
			for i, op := range ops {
				switch {
				case op >= 0:
					x := aids[op]
					ok := ctx.Guess(x)
					got = append(got, oracle.Outcome{AID: x, Result: ok})
				case op == -1:
					ctx.Send(echo.PID(), fmt.Sprintf("w%d-%d", w, i))
					if _, _, err := ctx.Recv(); err != nil {
						return err
					}
				case op == -2:
					ctx.Spawn(func(child *hope.Ctx) error {
						child.Send(echo.PID(), "child-ping")
						_, _, err := child.Recv()
						return err
					})
				}
			}
			mu.Lock()
			outcomes[w] = got
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("spawn worker %d: %v", w, err)
		}
		workers[w] = p
	}

	// Deciders fire the verdicts after random small delays.
	for _, x := range aids {
		x := x
		v := verdict[x]
		delay := time.Duration(rng.Intn(4)) * time.Millisecond
		if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
			time.Sleep(delay)
			if v {
				ctx.Affirm(x)
			} else {
				ctx.Deny(x)
			}
			return nil
		}); err != nil {
			t.Fatalf("spawn decider: %v", err)
		}
	}

	if !sys.Settle(60 * time.Second) {
		t.Fatal("chaos system did not settle")
	}

	for w, p := range workers {
		name := fmt.Sprintf("worker %d", w)
		if err := oracle.CheckWorker(name, p.Snapshot()); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := outcomes[w]
		mu.Unlock()
		guessOps := 0
		for _, op := range plans[w] {
			if op >= 0 {
				guessOps++
			}
		}
		if len(got) != guessOps {
			t.Fatalf("%s recorded %d outcomes, want %d", name, len(got), guessOps)
		}
		if err := oracle.CheckOutcomes(name, got, verdict); err != nil {
			t.Fatal(err)
		}
	}

	// Terminated processes must all be speculative children (the echo
	// service, deciders, and workers are definite roots), and each must
	// carry its error. A terminated process is reaped, so the check reads
	// the handles the tracer took at termination, beside the live ones.
	term.mu.Lock()
	dead, missed := term.procs, term.missed
	term.mu.Unlock()
	if len(missed) > 0 {
		t.Fatalf("terminated processes %v had left the engine before their Terminate event", missed)
	}
	snaps := make([]core.Status, 0, len(dead)+len(sys.Processes()))
	for _, p := range dead {
		st := p.Snapshot()
		if !st.Terminated {
			t.Fatalf("process %v traced as terminated but is not: %+v", p.PID(), st)
		}
		snaps = append(snaps, st)
	}
	for _, p := range sys.Processes() {
		snaps = append(snaps, p.Snapshot())
	}
	if err := oracle.CheckTerminations(snaps); err != nil {
		t.Fatal(err)
	}

	if v := sys.Violations(); v != 0 {
		t.Fatalf("%d protocol violations under chaos with single deciders", v)
	}

	// After quiescence, collection reclaims every assumption.
	n, err := sys.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if n < nAIDs {
		t.Fatalf("collected %d assumptions, want at least %d", n, nAIDs)
	}
	return len(dead)
}
