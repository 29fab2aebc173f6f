package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/trace"
)

const settleTimeout = 10 * time.Second

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng := NewEngine(cfg)
	t.Cleanup(eng.Shutdown)
	return eng
}

// TestRecordReplaysNondeterminism: a Ctx.Record value survives rollback
// re-execution unchanged.
func TestRecordReplaysNondeterminism(t *testing.T) {
	eng := newTestEngine(t, Config{})
	x, err := eng.NewAID()
	if err != nil {
		t.Fatalf("NewAID: %v", err)
	}

	var counter atomic.Int64
	var mu sync.Mutex
	var observed []int64

	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		v := ctx.Record(func() any { return counter.Add(1) }).(int64)
		ctx.Guess(x)
		mu.Lock()
		observed = append(observed, v)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Deny(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn denier: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	st := p.Snapshot()
	if st.Restarts == 0 {
		t.Fatal("process never rolled back")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(observed) < 2 {
		t.Fatalf("observed %v, want at least two executions", observed)
	}
	for i, v := range observed {
		if v != observed[0] {
			t.Fatalf("execution %d recorded %d, first recorded %d: Record not replayed", i, v, observed[0])
		}
	}
	if counter.Load() != 1 {
		t.Fatalf("recorder function ran %d times, want 1", counter.Load())
	}
}

// TestDivergenceDetected: a body that behaves differently on replay is
// reported, not silently corrupted.
func TestDivergenceDetected(t *testing.T) {
	eng := newTestEngine(t, Config{})
	x, _ := eng.NewAID()

	var runs atomic.Int64
	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		// Nondeterministic on purpose: the second execution performs a
		// different primitive sequence than the journal recorded.
		if runs.Add(1) == 1 {
			_ = ctx.Record(func() any { return 1 })
		} else {
			ctx.AidInit()
		}
		ctx.Guess(x)
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Deny(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn denier: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	st := p.Snapshot()
	var div *journal.DivergenceError
	if !errors.As(st.Err, &div) {
		t.Fatalf("err = %v, want DivergenceError", st.Err)
	}
}

// TestYieldUnwindsPendingRollback: a long computation with only Yield
// calls still reacts to rollback.
func TestYieldUnwindsPendingRollback(t *testing.T) {
	eng := newTestEngine(t, Config{})
	x, _ := eng.NewAID()

	reached := make(chan struct{}, 1)
	var mu sync.Mutex
	finalBranch := ""
	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		if ctx.Guess(x) {
			select {
			case reached <- struct{}{}:
			default:
			}
			for { // spin until the rollback lands
				ctx.Yield()
				time.Sleep(50 * time.Microsecond)
			}
		}
		mu.Lock()
		finalBranch = "pessimistic"
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	<-reached
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Deny(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn denier: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	st := p.Snapshot()
	if !st.Completed {
		t.Fatalf("process did not complete: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if finalBranch != "pessimistic" {
		t.Fatalf("final branch = %q", finalBranch)
	}
}

// TestSpeculativeAndDependencies: introspection helpers reflect the
// interval state.
func TestSpeculativeAndDependencies(t *testing.T) {
	eng := newTestEngine(t, Config{})
	x, _ := eng.NewAID()

	var mu sync.Mutex
	var specBefore, specAfter bool
	var deps []ids.AID
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		mu.Lock()
		specBefore = ctx.Speculative()
		mu.Unlock()
		ctx.Guess(x)
		mu.Lock()
		specAfter = ctx.Speculative()
		deps = ctx.Dependencies()
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	mu.Lock()
	defer mu.Unlock()
	if specBefore {
		t.Fatal("root interval reported speculative")
	}
	if !specAfter {
		t.Fatal("post-guess interval reported definite")
	}
	if len(deps) != 1 || deps[0] != x {
		t.Fatalf("deps = %v, want [%v]", deps, x)
	}
}

// TestTryRecvJournalsMisses: a TryRecv miss replays as a miss even if a
// message has arrived by replay time.
func TestTryRecvJournalsMisses(t *testing.T) {
	eng := newTestEngine(t, Config{})
	x, _ := eng.NewAID()

	var mu sync.Mutex
	var sequences [][]bool
	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		var seq []bool
		_, _, ok := ctx.TryRecv() // certainly a miss: nothing sent yet
		seq = append(seq, ok)
		ctx.Guess(x)
		_, _, err := ctx.Recv() // blocks until the probe message arrives
		if err != nil {
			return err
		}
		mu.Lock()
		sequences = append(sequences, seq)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}

	// Wait until p is parked in Recv — the TryRecv miss has certainly
	// happened — before feeding it, then deny to force a replay of the
	// journalled miss.
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle before probe")
	}
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Send(p.PID(), "probe")
		return nil
	}); err != nil {
		t.Fatalf("spawn prober: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle before deny")
	}
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Deny(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn denier: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	st := p.Snapshot()
	if st.Restarts == 0 {
		t.Fatal("never rolled back")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sequences) < 2 {
		t.Fatalf("want ≥2 completed executions, got %d", len(sequences))
	}
	for i, seq := range sequences {
		if len(seq) != 1 || seq[0] {
			t.Fatalf("execution %d: TryRecv sequence %v, want [false]", i, seq)
		}
	}
}

// TestShutdownUnblocksEverything: processes parked in Recv exit with
// ErrTerminated semantics and Shutdown returns promptly.
func TestShutdownUnblocksEverything(t *testing.T) {
	eng := NewEngine(Config{})
	for i := 0; i < 4; i++ {
		if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
			for {
				if _, _, err := ctx.Recv(); err != nil {
					return err
				}
			}
		}); err != nil {
			t.Fatalf("spawn: %v", err)
		}
	}
	done := make(chan struct{})
	go func() {
		eng.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung")
	}
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error { return nil }); !errors.Is(err, ErrShutdown) {
		t.Fatalf("spawn after shutdown: err = %v, want ErrShutdown", err)
	}
}

// TestTracerObservesLifecycle: the tracer sees primitives, rollbacks,
// restarts and finalizations.
func TestTracerObservesLifecycle(t *testing.T) {
	rec := trace.NewRecorder()
	eng := newTestEngine(t, Config{Tracer: rec})
	x, _ := eng.NewAID()

	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Guess(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Deny(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn denier: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	if rec.Count(trace.Primitive) == 0 {
		t.Fatal("no primitive events")
	}
	if rec.Count(trace.Rollback) == 0 {
		t.Fatal("no rollback events")
	}
	if rec.Count(trace.Restart) == 0 {
		t.Fatal("no restart events")
	}
	if rec.Count(trace.AIDState) == 0 {
		t.Fatal("no AID state events")
	}
}

// TestFreeOfNotDependent: free_of of an unrelated assumption affirms it.
func TestFreeOfNotDependent(t *testing.T) {
	eng := newTestEngine(t, Config{})
	x, _ := eng.NewAID()

	var mu sync.Mutex
	var free bool
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		f := ctx.FreeOf(x)
		mu.Lock()
		free = f
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	// x is affirmed by the free_of; a guesser should retain true.
	var mu2 sync.Mutex
	branch := ""
	g, err := eng.SpawnRoot(func(ctx *Ctx) error {
		if ctx.Guess(x) {
			mu2.Lock()
			branch = "optimistic"
			mu2.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("spawn guesser: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	mu.Lock()
	if !free {
		t.Fatal("free_of reported dependent")
	}
	mu.Unlock()
	mu2.Lock()
	defer mu2.Unlock()
	if branch != "optimistic" {
		t.Fatalf("guesser branch = %q", branch)
	}
	if st := g.Snapshot(); !st.AllDefinite {
		t.Fatalf("guesser not definite: %+v", st)
	}
}

// TestNestedSpawnSpeculation: speculation propagates through a chain of
// spawns, and denial terminates the whole speculative subtree.
func TestNestedSpawnSpeculation(t *testing.T) {
	rec := trace.NewRecorder()
	eng := newTestEngine(t, Config{Tracer: rec})
	x, _ := eng.NewAID()

	var mu sync.Mutex
	runs := make(map[string]int)
	bump := func(k string) {
		mu.Lock()
		runs[k]++
		mu.Unlock()
	}

	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		if ctx.Guess(x) {
			ctx.Spawn(func(c1 *Ctx) error {
				bump("child")
				c1.Spawn(func(c2 *Ctx) error {
					bump("grandchild")
					return nil
				})
				return nil
			})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle before deny")
	}
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Deny(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn denier: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	if st := p.Snapshot(); st.Restarts == 0 {
		t.Fatalf("parent never rolled back: %+v", st)
	}
	// Both descendants ran speculatively and were terminated; the
	// re-execution takes the false branch and spawns nothing. Terminated
	// processes are reaped, so count them from the trace.
	terminated := make(map[ids.PID]bool)
	for _, ev := range rec.Filter(trace.Terminate) {
		terminated[ev.PID] = true
	}
	if len(terminated) != 2 {
		t.Fatalf("terminated %d processes, want 2 (child+grandchild)", len(terminated))
	}
	mu.Lock()
	defer mu.Unlock()
	if runs["child"] == 0 || runs["grandchild"] == 0 {
		t.Fatalf("descendants never ran speculatively: %v", runs)
	}
}

// TestHistorySnapshotConsistency: the snapshot reflects kinds and
// definiteness coherently.
func TestHistorySnapshotConsistency(t *testing.T) {
	eng := newTestEngine(t, Config{})
	x, _ := eng.NewAID()
	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Guess(x)
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	h := p.HistorySnapshot()
	if len(h) != 2 {
		t.Fatalf("history = %v, want root+guess", h)
	}
	if h[0].Kind.String() != "root" || !h[0].Definite {
		t.Fatalf("root record wrong: %+v", h[0])
	}
	if h[1].GuessAID != x || h[1].Definite {
		t.Fatalf("guess record wrong: %+v", h[1])
	}
	if len(h[1].IDO) != 1 || h[1].IDO[0] != x {
		t.Fatalf("guess IDO = %v", h[1].IDO)
	}
}
