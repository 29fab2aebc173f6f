package hope_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	hope "github.com/hope-dist/hope"
	"github.com/hope-dist/hope/internal/trace"
)

// TestGuessNewCreatesAssumption: Guess(NilAID) spawns a fresh assumption
// (the paper's guess with an empty argument).
func TestGuessNewCreatesAssumption(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	var mu sync.Mutex
	var created hope.AID
	guesser, err := sys.Spawn(func(ctx *hope.Ctx) error {
		x, ok := ctx.GuessNew(hope.NilAID)
		if !ok {
			return errors.New("eager guess returned false")
		}
		mu.Lock()
		created = x
		mu.Unlock()
		ctx.Affirm(x) // self-affirm: conditional on itself, cut by UDO
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	mu.Lock()
	defer mu.Unlock()
	if !created.Valid() {
		t.Fatal("no assumption created")
	}
	if st := guesser.Snapshot(); !st.AllDefinite {
		t.Fatalf("self-affirmed guess did not commit: %+v", st)
	}
}

// TestStatsExposed: the public Stats surface counts protocol traffic.
func TestStatsExposed(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()
	x, _ := sys.NewAID()
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Guess(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Affirm(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	st := sys.Stats()
	if st.Guess == 0 || st.Affirm == 0 || st.Replace == 0 {
		t.Fatalf("stats = %+v, want guess/affirm/replace traffic", st)
	}
}

// TestWithTracerOption: a custom tracer receives events through the
// public option.
func TestWithTracerOption(t *testing.T) {
	rec := trace.NewRecorder()
	sys := hope.New(hope.WithTracer(rec))
	defer sys.Shutdown()
	x, _ := sys.NewAID()
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Guess(x)
		ctx.Affirm(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	if rec.Count(trace.Primitive) == 0 {
		t.Fatal("tracer saw no primitives")
	}
}

// TestProcessLookup: System.Process finds live processes by PID.
func TestProcessLookup(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()
	p, err := sys.Spawn(func(ctx *hope.Ctx) error {
		_, _, err := ctx.Recv() // park forever
		return err
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if got := sys.Process(p.PID()); got != p {
		t.Fatal("Process lookup failed")
	}
	if got := sys.Process(hope.PID(999999)); got != nil {
		t.Fatal("lookup invented a process")
	}
}

// TestSettleTimesOutOnLivelock: Settle reports false when the system
// cannot quiesce (Algorithm 1 cycle livelock).
func TestSettleTimesOutOnLivelock(t *testing.T) {
	sys := hope.New(
		hope.WithoutCycleDetection(),
		hope.WithConstantLatency(500*time.Microsecond),
	)
	defer sys.Shutdown()
	x, _ := sys.NewAID()
	y, _ := sys.NewAID()
	for _, pair := range [][2]hope.AID{{y, x}, {x, y}} {
		pair := pair
		if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
			ctx.Guess(pair[0])
			time.Sleep(2 * time.Millisecond)
			ctx.Affirm(pair[1])
			return nil
		}); err != nil {
			t.Fatalf("spawn: %v", err)
		}
	}
	time.Sleep(10 * time.Millisecond) // let the cycle form
	if sys.Settle(30 * time.Millisecond) {
		t.Fatal("Settle reported quiescence during a livelock")
	}
}

// TestJitterSeedsTransitiveRollback: the transitive-rollback scenario
// holds under several message-reordering seeds (failure injection).
func TestJitterSeedsTransitiveRollback(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sys := hope.New(hope.WithJitterLatency(0, 300*time.Microsecond, seed))

		x, _ := sys.NewAID()
		var mu sync.Mutex
		var final any

		receiver, err := sys.Spawn(func(ctx *hope.Ctx) error {
			v, _, err := ctx.Recv()
			if err != nil {
				return err
			}
			mu.Lock()
			final = v
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: spawn receiver: %v", seed, err)
		}
		if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
			if ctx.Guess(x) {
				ctx.Send(receiver.PID(), "speculative")
			} else {
				ctx.Send(receiver.PID(), "definite")
			}
			return nil
		}); err != nil {
			t.Fatalf("seed %d: spawn sender: %v", seed, err)
		}
		if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
			time.Sleep(time.Millisecond)
			ctx.Deny(x)
			return nil
		}); err != nil {
			t.Fatalf("seed %d: spawn denier: %v", seed, err)
		}
		if !sys.Settle(20 * time.Second) {
			t.Fatalf("seed %d: no settle", seed)
		}
		mu.Lock()
		got := final
		mu.Unlock()
		if got != "definite" {
			t.Fatalf("seed %d: receiver kept %v, want definite", seed, got)
		}
		st := receiver.Snapshot()
		if !st.AllDefinite {
			t.Fatalf("seed %d: receiver not definite: %+v", seed, st)
		}
		sys.Shutdown()
	}
}

// TestErrTerminatedSurface: a terminated speculative child reports
// hope.ErrTerminated.
func TestErrTerminatedSurface(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()
	x, _ := sys.NewAID()

	var mu sync.Mutex
	var childPID hope.PID
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		if ctx.Guess(x) {
			pid := ctx.Spawn(func(c *hope.Ctx) error {
				_, _, err := c.Recv() // parked until terminated
				return err
			})
			mu.Lock()
			childPID = pid
			mu.Unlock()
		}
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle before deny")
	}
	// Take the handle while the child is parked: once terminated it is
	// reaped, and only a held *Process still reads its status.
	mu.Lock()
	pid := childPID
	mu.Unlock()
	child := sys.Process(pid)
	if child == nil {
		t.Fatal("child not found")
	}
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Deny(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn denier: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	st := child.Snapshot()
	if !st.Terminated {
		t.Fatalf("child not terminated: %+v", st)
	}
	if !errors.Is(st.Err, hope.ErrTerminated) {
		t.Fatalf("child err = %v, want ErrTerminated", st.Err)
	}
}
