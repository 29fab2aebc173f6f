package core

import (
	"sync"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/ids"
)

// waitCond polls cond until it returns true or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// remoteAID fabricates an assumption identifier owned by a process this
// engine does not host — the core-level stand-in for an AID allocated on
// another node. Guessing it opens a speculative interval whose AddDOM
// dead-letters; nothing local can ever resolve it.
func remoteAID(n uint64) ids.AID { return ids.AID(1_000_000 + n) }

// TestLeaseExpiryAutoDenies: an assumption that stays Hot past its lease
// with nobody affirming or denying is auto-denied by the sweeper. The
// engine's AID table hosts the assumption here, so the denial takes the
// protocol path — a real Deny into the table, Rollback fan-out to the
// dependent — and the re-executed body observes Guess = false.
func TestLeaseExpiryAutoDenies(t *testing.T) {
	eng := newTestEngine(t, Config{Liveness: &LivenessConfig{
		Lease:      150 * time.Millisecond,
		CheckEvery: 10 * time.Millisecond,
	}})

	var mu sync.Mutex
	var observed []bool
	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		x := ctx.AidInit()
		ok := ctx.Guess(x)
		mu.Lock()
		observed = append(observed, ok)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}

	waitCond(t, 10*time.Second, "auto-deny", func() bool { return eng.AutoDenied() == 1 })
	waitCond(t, 10*time.Second, "definite history", func() bool {
		st := p.Snapshot()
		return st.Completed && st.AllDefinite
	})
	st := p.Snapshot()
	if st.Restarts == 0 {
		t.Fatal("dependent never rolled back")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(observed) < 2 || observed[0] != true || observed[len(observed)-1] != false {
		t.Fatalf("observed guesses %v, want optimistic true then final false", observed)
	}
}

// TestOwnerDeadAutoDenies: an assumption whose (fabricated) remote owner
// is reported dead by the Owner callback is denied on the fast path —
// well before its generous lease expires. The dead owner hosted the AID
// machine, so the engine must synthesize the Rollback fan-out itself.
func TestOwnerDeadAutoDenies(t *testing.T) {
	x := remoteAID(1)
	var dead sync.Map // set after the guess is in flight
	eng := newTestEngine(t, Config{Liveness: &LivenessConfig{
		Lease:      time.Hour, // expiry must not be what fires
		CheckEvery: 10 * time.Millisecond,
		Owner: func(a ids.AID) OwnerStatus {
			_, d := dead.Load(a)
			return OwnerStatus{Remote: true, Dead: d}
		},
	}})

	var mu sync.Mutex
	var observed []bool
	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ok := ctx.Guess(x)
		mu.Lock()
		observed = append(observed, ok)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	waitCond(t, 10*time.Second, "speculative completion", func() bool {
		st := p.Snapshot()
		return st.Completed && !st.AllDefinite
	})
	if got := eng.AutoDenied(); got != 0 {
		t.Fatalf("auto-denied %d assumptions while the owner was alive", got)
	}

	dead.Store(x, true)
	waitCond(t, 10*time.Second, "auto-deny after owner death", func() bool { return eng.AutoDenied() == 1 })
	waitCond(t, 10*time.Second, "definite history", func() bool {
		st := p.Snapshot()
		return st.Completed && st.AllDefinite
	})
	if v, ok := eng.Archived(x); !ok || v {
		t.Fatalf("Archived(%v) = %v,%v, want false,true", x, v, ok)
	}
	mu.Lock()
	defer mu.Unlock()
	if observed[len(observed)-1] != false {
		t.Fatalf("observed guesses %v, want final false", observed)
	}
}

// TestOwnerTrafficRefreshesLease: a slow-but-alive remote owner — fresh
// LastHeard, not dead — must not be timed out, no matter how many lease
// periods pass without resolution.
func TestOwnerTrafficRefreshesLease(t *testing.T) {
	x := remoteAID(2)
	eng := newTestEngine(t, Config{Liveness: &LivenessConfig{
		Lease:      50 * time.Millisecond,
		CheckEvery: 5 * time.Millisecond,
		Owner: func(ids.AID) OwnerStatus {
			return OwnerStatus{Remote: true, LastHeard: time.Now()}
		},
	}})
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Guess(x)
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}

	deadline := time.Now().Add(500 * time.Millisecond) // 10 lease periods
	for time.Now().Before(deadline) {
		if got := eng.AutoDenied(); got != 0 {
			t.Fatalf("auto-denied %d assumptions despite continuous owner traffic", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAutoDenyIdempotent: the second AutoDeny of the same assumption is
// a no-op — the archive already records the verdict, so repeated sweeps
// (or a detector callback racing the lease) cannot double-deny.
func TestAutoDenyIdempotent(t *testing.T) {
	eng := newTestEngine(t, Config{})
	x := remoteAID(3)
	if !eng.AutoDeny(x, "test") {
		t.Fatal("first AutoDeny reported no-op")
	}
	if eng.AutoDeny(x, "test") {
		t.Fatal("second AutoDeny of the same assumption was not a no-op")
	}
	if got := eng.AutoDenied(); got != 1 {
		t.Fatalf("AutoDenied = %d, want 1", got)
	}
}

// TestDenyOwnedSelective: DenyOwned touches exactly the speculative
// assumptions whose owning PID matches — the other node's assumptions
// stay Hot.
func TestDenyOwnedSelective(t *testing.T) {
	doomed, spared := remoteAID(10), remoteAID(2_000_000)
	eng := newTestEngine(t, Config{})

	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Guess(doomed)
		ctx.Guess(spared)
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	waitCond(t, 10*time.Second, "speculative completion", func() bool { return p.Snapshot().Completed })

	n := eng.DenyOwned(func(pid ids.PID) bool { return pid == doomed.PID() }, "node declared dead")
	if n != 1 {
		t.Fatalf("DenyOwned denied %d assumptions, want 1", n)
	}
	if v, ok := eng.Archived(doomed); !ok || v {
		t.Fatalf("Archived(doomed) = %v,%v, want false,true", v, ok)
	}
	if _, ok := eng.Archived(spared); ok {
		t.Fatal("assumption owned by a live node was archived")
	}
}

// TestDeniedSeedAnswersFalse: Config.Denied (the WAL's auto-deny records,
// replayed at restart) pre-archives the verdict, so a rebooted node
// answers guesses on an orphaned assumption false immediately — the dead
// owner's speculation is not resurrected, and no new denial is needed.
func TestDeniedSeedAnswersFalse(t *testing.T) {
	x := remoteAID(4)
	eng := newTestEngine(t, Config{
		Denied:   []ids.AID{x},
		Liveness: &LivenessConfig{Lease: time.Hour, CheckEvery: 10 * time.Millisecond},
	})

	var mu sync.Mutex
	var observed []bool
	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ok := ctx.Guess(x)
		mu.Lock()
		observed = append(observed, ok)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	st := p.Snapshot()
	if !st.Completed || !st.AllDefinite {
		t.Fatalf("status = %+v, want completed and definite", st)
	}
	if st.Restarts != 0 {
		t.Fatalf("process restarted %d times: the archived verdict should answer without speculation", st.Restarts)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(observed) != 1 || observed[0] != false {
		t.Fatalf("observed guesses %v, want a single immediate false", observed)
	}
	if got := eng.AutoDenied(); got != 0 {
		t.Fatalf("restart re-denied %d assumptions; archive should have answered", got)
	}
}
