package core_test

import (
	"sync"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/aid"
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/netsim"
	"github.com/hope-dist/hope/internal/transport"
)

// The park queue's two liveness properties for routed adjudications, pinned without the
// pacer's help: a view change drains parked messages immediately
// (OwnershipChanged ends with a flush), and messages whose owner stays
// unknown survive repeated re-parks without duplication or reordering.
// Both clusters run with RetryEvery set to an hour, so any delivery the
// tests observe can only have come from an explicit flush.

// newRetryCluster is newRouteCluster with a configurable retry pace and
// an optional per-node transport wrapper (for frame capture).
func newRetryCluster(net transport.Transport, nodes []int, retryEvery time.Duration, wrap func(node int, tr transport.Transport) transport.Transport) *routeCluster {
	c := &routeCluster{
		engines: make(map[int]*core.Engine),
		views:   make(map[int]*routeView),
	}
	for _, node := range nodes {
		view := &routeView{}
		c.views[node] = view
		self := node
		cfg := core.Config{
			PIDBase:   ids.PID(node) << routePIDBits,
			Transport: net,
			Routing: &core.RoutingConfig{
				Self:      self,
				NodeOf:    routeNode,
				RouterPID: routeRouterPID,
				Owner: func(ids.AID) (int, uint64, bool) {
					return view.get()
				},
				Ship: func(to int, payload []byte) bool {
					target := c.engines[to]
					if target == nil {
						return false
					}
					_, err := target.InstallTransfer(payload)
					return err == nil
				},
				RetryEvery: retryEvery,
			},
		}
		if wrap != nil {
			cfg.Transport = wrap(node, net)
		}
		c.engines[node] = core.NewEngine(cfg)
	}
	return c
}

// recordNet captures every Batch frame a node emits, forwarding all
// traffic untouched. Close is a no-op: the underlying net is shared.
type recordNet struct {
	transport.Transport
	mu      sync.Mutex
	batches [][]*msg.Message
}

func (t *recordNet) Send(m *msg.Message) {
	if m.Kind == msg.KindBatch {
		if inner, ok := m.Payload.([]*msg.Message); ok {
			t.mu.Lock()
			t.batches = append(t.batches, append([]*msg.Message(nil), inner...))
			t.mu.Unlock()
		}
	}
	t.Transport.Send(m)
}

func (t *recordNet) Close() {}

func (t *recordNet) snapshot() [][]*msg.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][]*msg.Message(nil), t.batches...)
}

// TestRetryQueueViewChangeDrain parks a Guess during bootstrap (no view
// known anywhere) and asserts the first view change delivers it without
// waiting for the retry pacer: OwnershipChanged is the queue's wake-up
// call.
func TestRetryQueueViewChangeDrain(t *testing.T) {
	net := netsim.New(netsim.Constant(100 * time.Microsecond))
	defer net.Close()
	c := newRetryCluster(net, []int{1, 2}, time.Hour, nil)
	defer c.shutdown()
	// No view is set anywhere: every routed send must park.

	a, err := c.engines[1].NewAID()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	outcome := false
	issued := make(chan struct{})
	var once sync.Once
	if _, err := c.engines[1].SpawnRoot(func(ctx *core.Ctx) error {
		ok := ctx.Guess(a)
		mu.Lock()
		outcome = ok
		mu.Unlock()
		once.Do(func() { close(issued) })
		_, _, err := ctx.Recv()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	<-issued // the Guess has been sent — and, with no view known, parked

	time.Sleep(20 * time.Millisecond)
	if _, ok := c.engines[2].HostedState(a); ok {
		t.Fatal("guess reached an owner while no view was known")
	}
	if s := c.engines[1].RoutingStats(); s.Retries != 0 {
		t.Fatalf("retries counted before any view existed: %+v", s)
	}

	// The view arrives. The pacer is an hour away, so the prompt delivery
	// below can only come from OwnershipChanged's flush.
	for _, v := range c.views {
		v.set(2, 1)
	}
	c.engines[1].OwnershipChanged()
	routeWaitFor(t, "the parked guess to reach the new owner", func() bool {
		st, ok := c.engines[2].HostedState(a)
		return ok && st == aid.Hot
	})
	if s := c.engines[1].RoutingStats(); s.Retries != 1 {
		t.Errorf("sender Retries = %d, want 1: %+v", s.Retries, s)
	}

	affirmFrom(t, c.engines[1], a)
	routeWaitFor(t, "the drained guess to be affirmed", func() bool {
		st, ok := c.engines[2].HostedState(a)
		return ok && st == aid.True
	})
	routeWaitFor(t, "the guessing interval to finalize", func() bool {
		mu.Lock()
		ok := outcome
		mu.Unlock()
		if !ok {
			return false
		}
		for _, p := range c.engines[1].Processes() {
			for _, ii := range p.HistorySnapshot() {
				if ii.GuessAID == a && ii.Definite {
					return true
				}
			}
		}
		return false
	})
	for node, e := range c.engines {
		if !e.Settle(30 * time.Second) {
			t.Fatalf("engine %d did not settle", node)
		}
		if v := e.Violations(); v != 0 {
			t.Errorf("engine %d saw %d protocol violations", node, v)
		}
	}
}

// TestRetryQueueReparkOrder parks several guesses while the owner is
// unknown, re-parks them through repeated view changes that resolve
// nothing, and asserts the eventual flush emits them as one Batch frame
// in their original order — no loss, no duplication, no reordering —
// applied exactly once at the owner.
func TestRetryQueueReparkOrder(t *testing.T) {
	net := netsim.New(netsim.Constant(100 * time.Microsecond))
	defer net.Close()
	rec := &recordNet{}
	c := newRetryCluster(net, []int{1, 2}, time.Hour, func(node int, tr transport.Transport) transport.Transport {
		if node != 1 {
			return tr
		}
		rec.Transport = tr
		return rec
	})
	defer c.shutdown()

	// One guesser per AID: nested guesses inside a single process re-send
	// their whole dependency set per interval, which is correct but makes
	// the parked count quadratic. Spawning sequentially (waiting for each
	// park before the next spawn) pins the queue's insertion order.
	const n = 5
	aids := make([]ids.AID, n)
	for i := range aids {
		a, err := c.engines[1].NewAID()
		if err != nil {
			t.Fatal(err)
		}
		aids[i] = a
		issued := make(chan struct{})
		var once sync.Once
		if _, err := c.engines[1].SpawnRoot(func(ctx *core.Ctx) error {
			ctx.Guess(a)
			once.Do(func() { close(issued) })
			_, _, err := ctx.Recv()
			return err
		}); err != nil {
			t.Fatal(err)
		}
		<-issued // the Guess has been sent — and, with no view known, parked
	}

	// View changes that resolve no owner: each flush must re-park the
	// whole queue intact, emitting nothing.
	c.engines[1].OwnershipChanged()
	c.engines[1].OwnershipChanged()
	time.Sleep(20 * time.Millisecond)
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("flush emitted %d batches while the owner was unknown", len(got))
	}
	if _, ok := c.engines[2].HostedState(aids[0]); ok {
		t.Fatal("a re-parked guess leaked to the owner")
	}

	// The owner becomes known: one flush, one Batch, original order.
	for _, v := range c.views {
		v.set(2, 1)
	}
	c.engines[1].OwnershipChanged()
	routeWaitFor(t, "every parked guess to reach the owner", func() bool {
		for _, a := range aids {
			if st, ok := c.engines[2].HostedState(a); !ok || st != aid.Hot {
				return false
			}
		}
		return true
	})

	batches := rec.snapshot()
	if len(batches) != 1 {
		t.Fatalf("drain emitted %d Batch frames, want 1", len(batches))
	}
	inner := batches[0]
	if len(inner) != n {
		t.Fatalf("batch carried %d messages, want %d", len(inner), n)
	}
	for i, m := range inner {
		if m.Kind != msg.KindGuess {
			t.Errorf("batch[%d] is %s, want Guess", i, m.Kind)
		}
		if m.AID != aids[i] {
			t.Errorf("batch[%d] carries %v, want %v — re-parks reordered the queue", i, m.AID, aids[i])
		}
	}
	s1 := c.engines[1].RoutingStats()
	if s1.Retries != n || s1.Batched != n {
		t.Errorf("sender stats Retries=%d Batched=%d, want %d/%d: %+v", s1.Retries, s1.Batched, n, n, s1)
	}
	s2 := c.engines[2].RoutingStats()
	if s2.Applied != n || s2.Duplicates != 0 || s2.Nacked != 0 {
		t.Errorf("owner stats Applied=%d Duplicates=%d Nacked=%d, want %d/0/0", s2.Applied, s2.Duplicates, s2.Nacked, n)
	}

	if _, err := c.engines[1].SpawnRoot(func(ctx *core.Ctx) error {
		for _, a := range aids {
			ctx.Affirm(a)
		}
		_, _, err := ctx.Recv()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	routeWaitFor(t, "every guess to be affirmed", func() bool {
		for _, a := range aids {
			if st, ok := c.engines[2].HostedState(a); !ok || st != aid.True {
				return false
			}
		}
		return true
	})
	for node, e := range c.engines {
		if !e.Settle(30 * time.Second) {
			t.Fatalf("engine %d did not settle", node)
		}
		if v := e.Violations(); v != 0 {
			t.Errorf("engine %d saw %d protocol violations", node, v)
		}
	}
}
