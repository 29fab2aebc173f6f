package hope_test

import (
	"sync"
	"testing"
	"time"

	hope "github.com/hope-dist/hope"
)

// TestCollectReclaimsFinalAssumptions: decided assumptions are reaped;
// undecided ones survive.
func TestCollectReclaimsFinalAssumptions(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	affirmed, _ := sys.NewAID()
	denied, _ := sys.NewAID()
	pending, _ := sys.NewAID()

	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Affirm(affirmed)
		ctx.Deny(denied)
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}

	n, err := sys.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if n != 2 {
		t.Fatalf("collected %d assumptions, want 2 (affirmed+denied, not pending)", n)
	}
	_ = pending

	// A second collection finds nothing new.
	n, err = sys.Collect()
	if err != nil {
		t.Fatalf("second Collect: %v", err)
	}
	if n != 0 {
		t.Fatalf("second collect reclaimed %d", n)
	}
}

// TestGuessAfterCollect: guesses of archived assumptions are answered
// locally with the archived verdict, without speculation.
func TestGuessAfterCollect(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	yes, _ := sys.NewAID()
	no, _ := sys.NewAID()
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Affirm(yes)
		ctx.Deny(no)
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	if _, err := sys.Collect(); err != nil {
		t.Fatalf("Collect: %v", err)
	}

	var mu sync.Mutex
	var gotYes, gotNo bool
	guesser, err := sys.Spawn(func(ctx *hope.Ctx) error {
		y := ctx.Guess(yes)
		n := ctx.Guess(no)
		mu.Lock()
		gotYes, gotNo = y, n
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("spawn guesser: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle after guesses")
	}
	mu.Lock()
	defer mu.Unlock()
	if !gotYes {
		t.Fatal("guess of archived-true assumption returned false")
	}
	if gotNo {
		t.Fatal("guess of archived-false assumption returned true")
	}
	st := guesser.Snapshot()
	if !st.AllDefinite {
		t.Fatalf("guesser speculated on archived assumptions: %+v", st)
	}
	if st.Restarts != 0 {
		t.Fatalf("guesser rolled back %d times", st.Restarts)
	}
}

// TestCollectThenContinue: a system keeps working normally after
// collection — fresh assumptions behave as usual.
func TestCollectThenContinue(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	old, _ := sys.NewAID()
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Affirm(old)
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	if _, err := sys.Collect(); err != nil {
		t.Fatalf("Collect: %v", err)
	}

	fresh, _ := sys.NewAID()
	var mu sync.Mutex
	branches := []string{}
	g, err := sys.Spawn(func(ctx *hope.Ctx) error {
		branch := "pessimistic"
		if ctx.Guess(fresh) {
			branch = "optimistic"
		}
		mu.Lock()
		branches = append(branches, branch)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("spawn guesser: %v", err)
	}
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Deny(fresh)
		return nil
	}); err != nil {
		t.Fatalf("spawn denier: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(branches) == 0 || branches[len(branches)-1] != "pessimistic" {
		t.Fatalf("branches = %v", branches)
	}
	if st := g.Snapshot(); !st.AllDefinite {
		t.Fatalf("not definite: %+v", st)
	}
}

// TestCollectSkipsConditionallyAffirmed: a Maybe assumption (affirmed
// conditionally, still unresolved) must survive collection.
func TestCollectSkipsConditionallyAffirmed(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	x, _ := sys.NewAID()
	y, _ := sys.NewAID()
	// Affirm x conditionally on y: x parks in Maybe.
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		if ctx.Guess(y) {
			ctx.Affirm(x)
		}
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	n, err := sys.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if n != 0 {
		t.Fatalf("collected %d assumptions while both are unresolved (x Maybe, y Hot)", n)
	}

	// Resolving y definitively resolves x too; now both collect.
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Affirm(y)
		return nil
	}); err != nil {
		t.Fatalf("spawn affirmer: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle after affirm")
	}
	n, err = sys.Collect()
	if err != nil {
		t.Fatalf("second Collect: %v", err)
	}
	if n != 2 {
		t.Fatalf("collected %d, want 2", n)
	}
}

// TestCollectSendsNothing: collection reads the AID table directly — no
// probe round trip, not a single message on the transport.
func TestCollectSendsNothing(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	yes, _ := sys.NewAID()
	no, _ := sys.NewAID()
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		ctx.Affirm(yes)
		ctx.Deny(no)
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	before := sys.Stats()
	n, err := sys.Collect()
	if err != nil || n != 2 {
		t.Fatalf("Collect = %d, %v; want 2", n, err)
	}
	if after := sys.Stats(); after != before {
		t.Fatalf("Collect moved the transport: before %v, after %v", before, after)
	}
}
