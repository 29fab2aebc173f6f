package hope_test

import (
	"sync"
	"testing"
	"time"

	hope "github.com/hope-dist/hope"
	"github.com/hope-dist/hope/internal/trace"
)

const settleTimeout = 5 * time.Second

// collector accumulates values observed by process bodies in a way the
// test can inspect after Settle. Bodies may run multiple times (replay),
// so values are recorded per named slot, last-write-wins.
type collector struct {
	mu sync.Mutex
	m  map[string]any
}

func newCollector() *collector { return &collector{m: make(map[string]any)} }

func (c *collector) set(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

func (c *collector) get(key string) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

func (c *collector) appendTo(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lst, _ := c.m[key].([]any)
	c.m[key] = append(lst, v)
}

// TestGuessAffirmed: the optimistic branch is retained when the
// assumption is affirmed, and the interval becomes definite.
func TestGuessAffirmed(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	x, err := sys.NewAID()
	if err != nil {
		t.Fatalf("NewAID: %v", err)
	}
	col := newCollector()

	guesser, err := sys.Spawn(func(ctx *hope.Ctx) error {
		if ctx.Guess(x) {
			col.set("branch", "optimistic")
		} else {
			col.set("branch", "pessimistic")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn guesser: %v", err)
	}

	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Affirm(x)
		return nil
	}); err != nil {
		t.Fatalf("Spawn affirmer: %v", err)
	}

	if !sys.Settle(settleTimeout) {
		t.Fatal("system did not settle")
	}
	if got := col.get("branch"); got != "optimistic" {
		t.Fatalf("branch = %v, want optimistic", got)
	}
	st := guesser.Snapshot()
	if !st.Completed {
		t.Fatal("guesser did not complete")
	}
	if !st.AllDefinite {
		t.Fatalf("guesser history not all definite: %+v", st)
	}
	if st.Restarts != 0 {
		t.Fatalf("guesser restarted %d times, want 0", st.Restarts)
	}
}

// TestGuessDenied: denial rolls the guesser back and the pessimistic
// branch runs with guess returning false.
func TestGuessDenied(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	x, err := sys.NewAID()
	if err != nil {
		t.Fatalf("NewAID: %v", err)
	}
	col := newCollector()

	guesser, err := sys.Spawn(func(ctx *hope.Ctx) error {
		if ctx.Guess(x) {
			col.appendTo("branches", "optimistic")
		} else {
			col.appendTo("branches", "pessimistic")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn guesser: %v", err)
	}

	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Deny(x)
		return nil
	}); err != nil {
		t.Fatalf("Spawn denier: %v", err)
	}

	if !sys.Settle(settleTimeout) {
		t.Fatal("system did not settle")
	}

	st := guesser.Snapshot()
	if !st.Completed {
		t.Fatalf("guesser did not complete: %+v", st)
	}
	branches, _ := col.get("branches").([]any)
	if len(branches) == 0 {
		t.Fatal("no branches recorded")
	}
	last := branches[len(branches)-1]
	if last != "pessimistic" {
		t.Fatalf("final branch = %v, want pessimistic (branches: %v)", last, branches)
	}
	if !st.AllDefinite {
		t.Fatalf("history not definite after denial handled: %+v", st)
	}
}

// TestTransitiveRollback: a speculative sender's message makes the
// receiver dependent via the tag; denial rolls both processes back.
func TestTransitiveRollback(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	x, err := sys.NewAID()
	if err != nil {
		t.Fatalf("NewAID: %v", err)
	}
	col := newCollector()

	receiver, err := sys.Spawn(func(ctx *hope.Ctx) error {
		v, _, err := ctx.Recv()
		if err != nil {
			return err
		}
		col.appendTo("received", v)
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn receiver: %v", err)
	}

	sender, err := sys.Spawn(func(ctx *hope.Ctx) error {
		if ctx.Guess(x) {
			ctx.Send(receiver.PID(), "speculative-value")
		} else {
			ctx.Send(receiver.PID(), "definite-value")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn sender: %v", err)
	}

	// Let the speculative send land, then deny.
	if !sys.Settle(settleTimeout) {
		t.Fatal("system did not settle before deny")
	}
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Deny(x)
		return nil
	}); err != nil {
		t.Fatalf("Spawn denier: %v", err)
	}
	if !sys.Settle(settleTimeout) {
		t.Fatal("system did not settle after deny")
	}

	recvd, _ := col.get("received").([]any)
	if len(recvd) == 0 {
		t.Fatal("receiver never received")
	}
	if last := recvd[len(recvd)-1]; last != "definite-value" {
		t.Fatalf("final received = %v, want definite-value (all: %v)", last, recvd)
	}
	sst := sender.Snapshot()
	rst := receiver.Snapshot()
	if sst.Restarts == 0 {
		t.Fatalf("sender never rolled back: %+v", sst)
	}
	if rst.Restarts == 0 {
		t.Fatalf("receiver never rolled back: %+v", rst)
	}
	if !sst.AllDefinite || !rst.AllDefinite {
		t.Fatalf("histories not definite: sender=%+v receiver=%+v", sst, rst)
	}
}

// TestSpeculativeAffirm exercises Lemma 5.3's scenario: an interval
// dependent on Y affirms X; guessers of X are passed on to Y (Maybe
// state, Replace), and when Y is affirmed everything finalizes.
func TestSpeculativeAffirm(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	x, _ := sys.NewAID()
	y, _ := sys.NewAID()
	col := newCollector()

	// B guesses X.
	b, err := sys.Spawn(func(ctx *hope.Ctx) error {
		if ctx.Guess(x) {
			col.set("b", "optimistic")
		} else {
			col.set("b", "pessimistic")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn b: %v", err)
	}

	// A guesses Y, then (speculatively) affirms X.
	a, err := sys.Spawn(func(ctx *hope.Ctx) error {
		if ctx.Guess(y) {
			ctx.Affirm(x) // conditional on Y
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn a: %v", err)
	}

	if !sys.Settle(settleTimeout) {
		t.Fatal("no settle after speculative affirm")
	}

	// Nothing is definite yet: X is Maybe, so B depends on Y now.
	if st := b.Snapshot(); st.AllDefinite {
		t.Fatalf("b became definite before Y resolved: %+v", st)
	}

	// Affirm Y definitively: A finalizes, its affirm of X becomes
	// unconditional, and B finalizes too.
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Affirm(y)
		return nil
	}); err != nil {
		t.Fatalf("Spawn y-affirmer: %v", err)
	}
	if !sys.Settle(settleTimeout) {
		t.Fatal("no settle after affirming Y")
	}

	ast, bst := a.Snapshot(), b.Snapshot()
	if !ast.AllDefinite {
		t.Fatalf("a not definite: %+v", ast)
	}
	if !bst.AllDefinite {
		t.Fatalf("b not definite: %+v", bst)
	}
	if got := col.get("b"); got != "optimistic" {
		t.Fatalf("b branch = %v, want optimistic", got)
	}
}

// TestSpeculativeAffirmDeniedBase: as above but Y is denied — A rolls
// back, its speculative affirm of X is retracted, and when X is then
// denied B takes the pessimistic branch.
func TestSpeculativeAffirmDeniedBase(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	x, _ := sys.NewAID()
	y, _ := sys.NewAID()
	col := newCollector()

	b, err := sys.Spawn(func(ctx *hope.Ctx) error {
		if ctx.Guess(x) {
			col.set("b", "optimistic")
		} else {
			col.set("b", "pessimistic")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn b: %v", err)
	}

	a, err := sys.Spawn(func(ctx *hope.Ctx) error {
		if ctx.Guess(y) {
			ctx.Affirm(x) // conditional on Y
		} else {
			ctx.Deny(x) // re-execution: Y false, so deny X definitively
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn a: %v", err)
	}

	if !sys.Settle(settleTimeout) {
		t.Fatal("no settle after speculative affirm")
	}
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Deny(y)
		return nil
	}); err != nil {
		t.Fatalf("Spawn y-denier: %v", err)
	}
	if !sys.Settle(settleTimeout) {
		t.Fatal("no settle after denying Y")
	}

	ast, bst := a.Snapshot(), b.Snapshot()
	if ast.Restarts == 0 {
		t.Fatalf("a never rolled back: %+v", ast)
	}
	if got := col.get("b"); got != "pessimistic" {
		t.Fatalf("b branch = %v, want pessimistic", got)
	}
	if !ast.AllDefinite || !bst.AllDefinite {
		t.Fatalf("not definite: a=%+v b=%+v", ast, bst)
	}
}

// TestSpawnTermination: a child spawned from a rolled-back speculative
// interval is terminated, and the re-execution's child survives.
func TestSpawnTermination(t *testing.T) {
	rec := trace.NewRecorder()
	sys := hope.New(hope.WithTracer(rec))
	defer sys.Shutdown()

	x, _ := sys.NewAID()
	col := newCollector()

	parent, err := sys.Spawn(func(ctx *hope.Ctx) error {
		if ctx.Guess(x) {
			child := ctx.Spawn(func(c *hope.Ctx) error {
				col.appendTo("children", "speculative-child")
				return nil
			})
			col.set("speculative-child-pid", child)
		} else {
			child := ctx.Spawn(func(c *hope.Ctx) error {
				col.appendTo("children", "definite-child")
				col.set("definite-child-done", c.PID())
				return nil
			})
			col.set("definite-child-pid", child)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn parent: %v", err)
	}

	if !sys.Settle(settleTimeout) {
		t.Fatal("no settle before deny")
	}
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Deny(x)
		return nil
	}); err != nil {
		t.Fatalf("Spawn denier: %v", err)
	}
	if !sys.Settle(settleTimeout) {
		t.Fatal("no settle after deny")
	}

	pst := parent.Snapshot()
	if pst.Restarts == 0 {
		t.Fatalf("parent never rolled back: %+v", pst)
	}
	terminated := func(pid hope.PID) bool {
		for _, ev := range rec.Filter(trace.Terminate) {
			if ev.PID == pid {
				return true
			}
		}
		return false
	}
	// The speculative child must be terminated (and is then reaped).
	if pidv := col.get("speculative-child-pid"); pidv != nil {
		if pid := pidv.(hope.PID); !terminated(pid) || sys.Process(pid) != nil {
			t.Fatalf("speculative child %v not terminated", pid)
		}
	} else {
		t.Fatal("speculative child never spawned")
	}
	// The definite child must have completed and not been terminated. A
	// finished process is reaped, so read that from what outlives it: its
	// body returned, the trace holds no Terminate for it, and it left the
	// engine, which only completion or termination lets a process do.
	pidv := col.get("definite-child-pid")
	if pidv == nil {
		t.Fatal("definite child never spawned")
	}
	pid := pidv.(hope.PID)
	if col.get("definite-child-done") != pid {
		t.Fatal("definite child's body never returned")
	}
	if terminated(pid) {
		t.Fatal("definite child terminated")
	}
	if sys.Process(pid) != nil {
		t.Fatal("definite child still live after settling")
	}
}

// TestFreeOfCausalityViolation reproduces the paper's §3.1 Order check:
// a process that detects it depends on the ordering assumption denies it,
// forcing rollback; a process free of it affirms it.
func TestFreeOfCausalityViolation(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	order, _ := sys.NewAID()
	col := newCollector()

	// checker receives one message and then asserts freedom from Order.
	checker, err := sys.Spawn(func(ctx *hope.Ctx) error {
		_, _, err := ctx.Recv()
		if err != nil {
			return err
		}
		free := ctx.FreeOf(order)
		col.appendTo("free", free)
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn checker: %v", err)
	}

	// sender becomes dependent on Order by guessing it, then messages the
	// checker — transferring the dependency via the tag.
	sender, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Guess(order)
		ctx.Send(checker.PID(), "tainted")
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn sender: %v", err)
	}

	if !sys.Settle(settleTimeout) {
		t.Fatal("no settle")
	}

	// The checker found itself dependent on Order ⇒ denied it ⇒ both the
	// checker and the sender roll back. On re-execution the sender's
	// guess(order) returns false; its re-sent message carries no taint,
	// and the checker's free_of finds it free.
	sst, cst := sender.Snapshot(), checker.Snapshot()
	if cst.Restarts == 0 {
		t.Fatalf("checker never rolled back: %+v", cst)
	}
	if sst.Restarts == 0 {
		t.Fatalf("sender never rolled back: %+v", sst)
	}
	frees, _ := col.get("free").([]any)
	if len(frees) == 0 {
		t.Fatal("free_of never ran")
	}
	if first := frees[0].(bool); first {
		t.Fatalf("first free_of = true, want false (dependency present)")
	}
	if last := frees[len(frees)-1].(bool); !last {
		t.Fatalf("final free_of = false, want true after rollback")
	}
}

// TestWaitFreePrimitivesWithLatency: primitives complete without waiting
// for the (slow) network — the run settles and the optimistic branch is
// retained even with 2ms one-way latency.
func TestWaitFreePrimitivesWithLatency(t *testing.T) {
	sys := hope.New(hope.WithConstantLatency(2 * time.Millisecond))
	defer sys.Shutdown()

	x, _ := sys.NewAID()
	col := newCollector()

	start := time.Now()
	guesser, err := sys.Spawn(func(ctx *hope.Ctx) error {
		if ctx.Guess(x) {
			col.set("branch", "optimistic")
		}
		col.set("primitive-time", time.Since(start))
		return nil
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Affirm(x)
		return nil
	}); err != nil {
		t.Fatalf("Spawn affirmer: %v", err)
	}
	if !sys.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	if got := col.get("branch"); got != "optimistic" {
		t.Fatalf("branch = %v", got)
	}
	// The guess must not have waited for the 2ms round trip.
	d := col.get("primitive-time").(time.Duration)
	if d > time.Millisecond {
		t.Fatalf("guess appears to have blocked on the network: %v", d)
	}
	if st := guesser.Snapshot(); !st.AllDefinite {
		t.Fatalf("not definite: %+v", st)
	}
}
