package hope_test

import (
	"runtime"
	"testing"
	"time"

	hope "github.com/hope-dist/hope"
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/durable"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

// TestAIDsCostNoGoroutine: an assumption is an entry in the engine's AID
// table, not a process — minting and resolving a thousand of them leaves
// the goroutine count where one deciding process puts it.
func TestAIDsCostNoGoroutine(t *testing.T) {
	sys := hope.New()
	defer sys.Shutdown()

	before := runtime.NumGoroutine()
	aids := make([]hope.AID, 1000)
	for i := range aids {
		a, err := sys.NewAID()
		if err != nil {
			t.Fatalf("NewAID: %v", err)
		}
		aids[i] = a
	}
	if _, err := sys.Spawn(func(ctx *hope.Ctx) error {
		for i, a := range aids {
			if i%2 == 0 {
				ctx.Affirm(a)
			} else {
				ctx.Deny(a)
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !sys.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	if grew := runtime.NumGoroutine() - before; grew > 8 {
		t.Fatalf("1000 resolved assumptions cost %d goroutines", grew)
	}
	if n, _ := sys.Collect(); n != len(aids) {
		t.Fatalf("collected %d assumptions, want all %d resolved", n, len(aids))
	}
}

// TestRestartRestoresMintedAIDs: a durable engine's minted assumptions
// survive its restart, whether or not any frame for them was applied
// before it. x is minted, a remote interval guesses it (before the
// restart, or only after it), and the store is reopened under a fresh
// engine; once the recovered table is installed, a later Affirm(x)
// reaches the remote dependent as Replace(x→∅) — the machine still knows
// its DOM, and its PID still reaches it.
func TestRestartRestoresMintedAIDs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		guessBefore bool
	}{
		{"guessed-before-restart", true},
		{"unadjudicated-before-restart", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			remote := ids.IntervalID{Proc: wire.PIDBase(2) + 1, Seq: 1, Epoch: 1}
			affirmer := ids.IntervalID{Proc: wire.PIDBase(2) + 2, Seq: 1, Epoch: 1}

			store, _, err := durable.Open(dir, 1, wal.SyncAlways, nil)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			eng := core.NewEngine(core.Config{PIDBase: wire.PIDBase(1), Persist: store})
			x, err := eng.NewAID()
			if err != nil {
				t.Fatalf("NewAID: %v", err)
			}
			if tc.guessBefore {
				eng.Net().Send(msg.Guess(remote.Proc, remote, x))
				if !eng.Settle(10 * time.Second) {
					t.Fatal("no settle")
				}
			}
			eng.Shutdown()
			if err := store.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			store2, rec, err := durable.Open(dir, 1, wal.SyncAlways, nil)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer store2.Close()
			eng2 := core.NewEngine(core.Config{PIDBase: wire.PIDBase(1), Persist: store2})
			defer eng2.Shutdown()
			if n, err := eng2.InstallExports(rec.AIDExports, false); err != nil || n != 1 {
				t.Fatalf("InstallExports = %d, %v; want the one minted AID", n, err)
			}
			if y, _ := eng2.NewAID(); y == x {
				t.Fatalf("restarted engine re-minted the restored AID %v", x)
			}

			got := make(chan *msg.Message, 4)
			eng2.Net().Register(remote.Proc, func(m *msg.Message) { got <- m })
			if !tc.guessBefore {
				eng2.Net().Send(msg.Guess(remote.Proc, remote, x))
				if !eng2.Settle(10 * time.Second) {
					t.Fatal("no settle")
				}
			}
			eng2.Net().Send(msg.Affirm(affirmer.Proc, affirmer, x, nil))
			select {
			case m := <-got:
				if m.Kind != msg.KindReplace || m.AID != x || m.IID != remote || len(m.IDO) != 0 {
					t.Fatalf("dependent received %v, want Replace(%v→∅) for %v", m, x, remote)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Affirm of the restored AID never reached its dependent")
			}
		})
	}
}

// TestRestartReclaimsDecidedAIDs: a durable engine reclaims the machines
// it decided as it serves, and a restart that reinstalls them from the WAL
// re-announces each verdict to its DOM and reclaims it again. x is
// affirmed and y denied with a remote dependent on each; after the
// restart the dependent hears Replace(x→∅) and Rollback(y), no final
// machine stays hosted, and a late Guess of either still gets its
// verdict without a dead letter.
func TestRestartReclaimsDecidedAIDs(t *testing.T) {
	dir := t.TempDir()
	dep := ids.IntervalID{Proc: wire.PIDBase(2) + 1, Seq: 1, Epoch: 1}
	decider := ids.IntervalID{Proc: wire.PIDBase(2) + 2, Seq: 1, Epoch: 1}
	late := ids.IntervalID{Proc: wire.PIDBase(2) + 3, Seq: 1, Epoch: 1}

	store, _, err := durable.Open(dir, 1, wal.SyncAlways, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	eng := core.NewEngine(core.Config{PIDBase: wire.PIDBase(1), Persist: store})
	x, _ := eng.NewAID()
	y, _ := eng.NewAID()
	for _, pid := range []ids.PID{dep.Proc, decider.Proc} {
		eng.Net().Register(pid, func(*msg.Message) {})
	}
	eng.Net().Send(msg.Guess(dep.Proc, dep, x))
	eng.Net().Send(msg.Guess(dep.Proc, dep, y))
	eng.Net().Send(msg.Affirm(decider.Proc, decider, x, nil))
	eng.Net().Send(msg.Deny(decider.Proc, decider, y))
	if !eng.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	if r := eng.RoutingStats().Reclaimed; r != 2 {
		t.Fatalf("Reclaimed = %d before the restart, want 2", r)
	}
	eng.Shutdown()
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	store2, rec, err := durable.Open(dir, 1, wal.SyncAlways, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store2.Close()
	eng2 := core.NewEngine(core.Config{PIDBase: wire.PIDBase(1), Persist: store2})
	defer eng2.Shutdown()
	got := make(chan *msg.Message, 8)
	for _, pid := range []ids.PID{dep.Proc, late.Proc} {
		eng2.Net().Register(pid, func(m *msg.Message) { got <- m })
	}
	if n, err := eng2.InstallExports(rec.AIDExports, false); err != nil || n != 2 {
		t.Fatalf("InstallExports = %d, %v; want x and y", n, err)
	}
	expect := func(what string, kind msg.Kind, a ids.AID, to ids.IntervalID) {
		t.Helper()
		select {
		case m := <-got:
			if m.Kind != kind || m.AID != a || m.IID != to || len(m.IDO) != 0 {
				t.Fatalf("%s: got %v, want %v of %v for %v", what, m, kind, a, to)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: nothing arrived", what)
		}
	}
	// The WAL's exports install in map order, so either may come first.
	announced := make(map[ids.AID]msg.Kind)
	for range 2 {
		select {
		case m := <-got:
			if m.IID != dep || len(m.IDO) != 0 {
				t.Fatalf("re-announce: got %v, want a verdict for %v", m, dep)
			}
			announced[m.AID] = m.Kind
		case <-time.After(10 * time.Second):
			t.Fatalf("re-announce: %d of 2 arrived", len(announced))
		}
	}
	if announced[x] != msg.KindReplace || announced[y] != msg.KindRollback {
		t.Fatalf("re-announced %v, want Replace of %v and Rollback of %v", announced, x, y)
	}
	if r := eng2.RoutingStats().Reclaimed; r != 2 {
		t.Fatalf("Reclaimed = %d after the install, want 2", r)
	}
	if exp := eng2.HostedExports(); len(exp) != 0 {
		t.Fatalf("final machines still hosted after the install: %+v", exp)
	}

	eng2.Net().Send(msg.Guess(late.Proc, late, x))
	expect("late guess of x", msg.KindReplace, x, late)
	eng2.Net().Send(msg.Guess(late.Proc, late, y))
	expect("late guess of y", msg.KindRollback, y, late)
	if !eng2.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	if d := eng2.Net().Stats().Dead; d != 0 {
		t.Fatalf("%d dead letters", d)
	}
}
