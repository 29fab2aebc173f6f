package core_test

import (
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/aid"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/netsim"
)

// TestRetriedAffirmAfterRetractIsVoid pins the one way a routed
// adjudication can legitimately cross finality. A speculative Affirm held
// back in flight — as a NACK retry holds it — can reach the owner after
// its interval's rollback sent the Retract and after a re-execution's
// Deny made the assumption False. That Affirm speaks for an interval that
// no longer exists: the table drops it without a violation. A live
// conflicting Affirm, from an interval never retracted, is still the
// paper's §3 user error.
func TestRetriedAffirmAfterRetractIsVoid(t *testing.T) {
	net := netsim.New(netsim.Constant(100 * time.Microsecond))
	defer net.Close()
	g := &holdGate{}
	c := newRouteCluster(net, g, []int{1, 2})
	defer c.shutdown()
	for _, v := range c.views {
		v.set(2, 1) // node 2 adjudicates everything
	}
	sender, owner := c.engines[1], c.engines[2]
	x, err := sender.NewAID()
	if err != nil {
		t.Fatal(err)
	}
	proc := routeRouterPID(1) + 7 // a node-1 PID: NACKs would return to node 1
	routed := func(m *msg.Message) *msg.Message {
		m.To, m.Epoch = routeRouterPID(2), 1
		return m
	}
	affirmer := ids.IntervalID{Proc: proc, Seq: 1, Epoch: 1}
	denier := ids.IntervalID{Proc: proc, Seq: 2, Epoch: 2}

	g.hold(func(m *msg.Message) bool { return m.Kind == msg.KindAffirm })
	sender.Net().Send(routed(msg.Affirm(proc, affirmer, x, []ids.AID{x + 1})))
	routeWaitFor(t, "the speculative Affirm to be held in flight", func() bool {
		return g.heldCount() == 1
	})
	sender.Net().Send(routed(msg.Retract(proc, affirmer, x)))
	sender.Net().Send(routed(msg.Deny(proc, denier, x)))
	routeWaitFor(t, "the re-execution's Deny to make x False", func() bool {
		st, ok := owner.HostedState(x)
		return ok && st == aid.False
	})

	g.release(net)
	if !owner.Settle(10*time.Second) || !sender.Settle(10*time.Second) {
		t.Fatal("no settle after releasing the held Affirm")
	}
	if v := owner.Violations(); v != 0 {
		t.Fatalf("the retracted interval's late Affirm traced %d violations", v)
	}
	if st, _ := owner.HostedState(x); st != aid.False {
		t.Fatalf("x left False for %v", st)
	}

	live := ids.IntervalID{Proc: proc, Seq: 3, Epoch: 3}
	sender.Net().Send(routed(msg.Affirm(proc, live, x, nil)))
	if !owner.Settle(10 * time.Second) {
		t.Fatal("no settle after the live Affirm")
	}
	if v := owner.Violations(); v != 1 {
		t.Fatalf("a live Affirm of a denied AID traced %d violations, want 1", v)
	}
}

// TestLeaseDenyOfAffirmedAIDIsDropped pins the other conflict that is not
// the user's. When a lease expires the liveness layer denies the
// assumption on its own behalf (AutoDeny: a Deny from the assumption's own
// PID, for no interval), and with a ring that Deny travels to the owner —
// where the Affirm that decided the assumption may already have landed.
// The affirmed verdict stands and nothing is traced as a violation. A
// user's Deny of the same affirmed assumption is still the §3 user error.
func TestLeaseDenyOfAffirmedAIDIsDropped(t *testing.T) {
	net := netsim.New(netsim.Constant(100 * time.Microsecond))
	defer net.Close()
	c := newRouteCluster(net, nil, []int{1, 2})
	defer c.shutdown()
	for _, v := range c.views {
		v.set(2, 1) // node 2 adjudicates everything
	}
	minter, owner := c.engines[1], c.engines[2]
	x, err := minter.NewAID()
	if err != nil {
		t.Fatal(err)
	}
	proc := routeRouterPID(1) + 7
	routed := func(m *msg.Message) *msg.Message {
		m.To, m.Epoch = routeRouterPID(2), 1
		return m
	}

	minter.Net().Send(routed(msg.Affirm(proc, ids.IntervalID{Proc: proc, Seq: 1, Epoch: 1}, x, nil)))
	routeWaitFor(t, "the Affirm to make x True", func() bool {
		st, ok := owner.HostedState(x)
		return ok && st == aid.True
	})
	if !minter.AutoDeny(x, "lease expired") {
		t.Fatal("AutoDeny declined a fresh assumption")
	}
	if !minter.Settle(10*time.Second) || !owner.Settle(10*time.Second) {
		t.Fatal("no settle after the lease deny")
	}
	if v := owner.Violations(); v != 0 {
		t.Fatalf("the lease deny of an affirmed AID traced %d violations", v)
	}
	if st, _ := owner.HostedState(x); st != aid.True {
		t.Fatalf("the lease deny moved x from True to %v", st)
	}

	owner.Net().Send(routed(msg.Deny(proc, ids.IntervalID{Proc: proc, Seq: 2, Epoch: 2}, x)))
	if !owner.Settle(10 * time.Second) {
		t.Fatal("no settle after the user Deny")
	}
	if v := owner.Violations(); v != 1 {
		t.Fatalf("a user Deny of an affirmed AID traced %d violations, want 1", v)
	}
}
