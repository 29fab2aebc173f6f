package core_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/aid"
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/netsim"
	"github.com/hope-dist/hope/internal/trace"
)

// guessRecorder spawns a root on eng that guesses x once per execution
// and records each answer.
type guessRecorder struct {
	mu  sync.Mutex
	got []bool
	p   *core.Process
}

func spawnGuesser(t *testing.T, eng *core.Engine, x ids.AID) *guessRecorder {
	t.Helper()
	g := &guessRecorder{}
	p, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		ok := ctx.Guess(x)
		g.mu.Lock()
		g.got = append(g.got, ok)
		g.mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	g.p = p
	return g
}

func (g *guessRecorder) answers() []bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]bool(nil), g.got...)
}

// TestLateFramesMeetReclaimedVerdicts: frames that reach a node's AID
// table after it reclaimed the assumptions they name are answered as the
// decided machines would have answered them, and none is a dead letter.
// Node 2's guesses of x and y are held in flight while node 1 affirms x,
// denies y and reclaims both; released, the guesser of x resolves through
// Replace(x→∅) and the guesser of y rolls back. Fabricated late Guess and
// CutProbe frames then get Replace(x→∅), CutAck(x) and Rollback(y).
func TestLateFramesMeetReclaimedVerdicts(t *testing.T) {
	net := netsim.New(netsim.Constant(100 * time.Microsecond))
	defer net.Close()
	g := &holdGate{}
	host := core.NewEngine(core.Config{PIDBase: 1 << routePIDBits, Transport: net})
	defer host.Shutdown()
	guesser := core.NewEngine(core.Config{PIDBase: 2 << routePIDBits, Transport: &routeGatedNet{Transport: net, g: g}})
	defer guesser.Shutdown()

	x, _ := host.NewAID()
	y, _ := host.NewAID()
	g.hold(func(m *msg.Message) bool { return m.Kind == msg.KindGuess })
	gx := spawnGuesser(t, guesser, x)
	gy := spawnGuesser(t, guesser, y)
	routeWaitFor(t, "both guesses to be held in flight", func() bool { return g.heldCount() == 2 })

	if _, err := host.SpawnRoot(func(ctx *core.Ctx) error {
		ctx.Affirm(x)
		ctx.Deny(y)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	routeWaitFor(t, "x and y to be reclaimed", func() bool { return host.RoutingStats().Reclaimed == 2 })
	if exp := host.HostedExports(); len(exp) != 0 {
		t.Fatalf("host still holds machines %+v", exp)
	}

	g.release(net)
	routeWaitFor(t, "both guessers to finish definite", func() bool {
		a, b := gx.p.Snapshot(), gy.p.Snapshot()
		return a.Completed && a.AllDefinite && b.Completed && b.AllDefinite
	})
	if st := gx.p.Snapshot(); st.Restarts != 0 || len(gx.answers()) != 1 || !gx.answers()[0] {
		t.Fatalf("guesser of affirmed x: restarts %d, answers %v; want 0, [true]", st.Restarts, gx.answers())
	}
	if st := gy.p.Snapshot(); st.Restarts != 1 || gy.answers()[len(gy.answers())-1] {
		t.Fatalf("guesser of denied y: restarts %d, answers %v; want 1, final false", st.Restarts, gy.answers())
	}

	probe := ids.PID(2<<routePIDBits | 1<<(routePIDBits-2))
	got := make(chan *msg.Message, 8)
	net.Register(probe, func(m *msg.Message) { got <- m })
	iid := func(seq uint32) ids.IntervalID { return ids.IntervalID{Proc: probe, Seq: seq, Epoch: 1} }
	for _, tc := range []struct {
		send *msg.Message
		kind msg.Kind
	}{
		{msg.Guess(probe, iid(1), x), msg.KindReplace},
		{msg.CutProbe(probe, iid(2), x), msg.KindCutAck},
		{msg.Guess(probe, iid(3), y), msg.KindRollback},
		{msg.CutProbe(probe, iid(4), y), msg.KindRollback},
	} {
		net.Send(tc.send)
		select {
		case m := <-got:
			if m.Kind != tc.kind || m.AID != tc.send.AID || m.IID != tc.send.IID || len(m.IDO) != 0 {
				t.Fatalf("late %v answered with %v, want %v for %v", tc.send, m, tc.kind, tc.send.IID)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("late %v got no answer", tc.send)
		}
	}
	if !host.Settle(10*time.Second) || !guesser.Settle(10*time.Second) {
		t.Fatal("no settle")
	}
	if exp := host.HostedExports(); len(exp) != 0 {
		t.Fatalf("machines rebuilt for the late frames stayed hosted: %+v", exp)
	}
	if d := net.Stats().Dead; d != 0 {
		t.Fatalf("%d dead letters", d)
	}
	if v := host.Violations() + guesser.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}

// TestAutoDenyOfReclaimedTrueIsDropped: a lease that expires on an
// assumption the table has already affirmed and reclaimed still sends its
// Deny to the table, which drops it, rather than rolling back the local
// dependents itself. The dependent's Replace(z→∅) is held in flight, so
// the dependent still leans on z when the lease fires.
func TestAutoDenyOfReclaimedTrueIsDropped(t *testing.T) {
	net := netsim.New(netsim.Constant(100 * time.Microsecond))
	defer net.Close()
	g := &holdGate{}
	rec := trace.NewRecorder()
	eng := core.NewEngine(core.Config{
		Transport: &routeGatedNet{Transport: net, g: g},
		Tracer:    rec,
		Liveness:  &core.LivenessConfig{Lease: time.Hour, CheckEvery: 10 * time.Millisecond},
	})
	defer eng.Shutdown()

	z, _ := eng.NewAID()
	g.hold(func(m *msg.Message) bool { return m.Kind == msg.KindReplace && m.AID == z })
	dep := spawnGuesser(t, eng, z)
	routeWaitFor(t, "the dependent's guess to reach the table", func() bool {
		st, ok := eng.HostedState(z)
		return ok && st == aid.Hot
	})
	if _, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		ctx.Affirm(z)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	routeWaitFor(t, "z to be affirmed and reclaimed", func() bool {
		return eng.RoutingStats().Reclaimed == 1 && g.heldCount() == 1
	})

	if !eng.AutoDeny(z, "lease expired") {
		t.Fatal("AutoDeny declined")
	}
	dropped := func() int {
		n := 0
		for _, e := range rec.Filter(trace.Info) {
			if e.AID == z && strings.Contains(e.Detail, "dropped a lease deny") {
				n++
			}
		}
		return n
	}
	routeWaitFor(t, "the table to drop the lease deny", func() bool { return dropped() == 1 })

	g.release(net)
	routeWaitFor(t, "the dependent to finish definite", func() bool {
		st := dep.p.Snapshot()
		return st.Completed && st.AllDefinite
	})
	if !eng.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	if st := dep.p.Snapshot(); st.Restarts != 0 || len(dep.answers()) != 1 || !dep.answers()[0] {
		t.Fatalf("dependent: restarts %d, answers %v; want 0, [true]", st.Restarts, dep.answers())
	}
	if st, ok := eng.HostedState(z); !ok || st != aid.True {
		t.Fatalf("HostedState(z) = %v, %v; want True", st, ok)
	}
	if d := net.Stats().Dead; d != 0 {
		t.Fatalf("%d dead letters", d)
	}
	if v := eng.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}
