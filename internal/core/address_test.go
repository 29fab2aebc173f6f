package core_test

import (
	"reflect"
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

// The engine's one outbound addressing step (DESIGN.md §4 message
// ownership, §13): whatever re-addresses a message sends a copy, so the
// pointer a sender holds — and Ctx.Send journals — keeps what the body
// performed.

// TestRollbackPastTranslatedSend rolls a process back past a Data send
// whose destination has a transplant mapping. The re-execution replays
// send(to=<old PID>) against the journal, which must still name the old
// PID: a translation written through the journalled pointer makes the
// replay diverge ("journal: replay divergence").
func TestRollbackPastTranslatedSend(t *testing.T) {
	eng := core.NewEngine(core.Config{})
	defer eng.Shutdown()

	got := make(chan any, 4)
	sink, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		for {
			v, _, err := ctx.Recv()
			if err != nil {
				return err
			}
			got <- v
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	old := ids.PID(9 << routePIDBits) // a dead incarnation, reborn as the sink
	if n := eng.InstallTransplantMap([]core.TransplantPair{{Old: old, New: sink.PID()}}); n != 1 {
		t.Fatalf("InstallTransplantMap installed %d pairs, want 1", n)
	}
	x, err := eng.NewAID()
	if err != nil {
		t.Fatal(err)
	}
	y, err := eng.NewAID()
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var outcomes []bool // Guess(y) per execution
	guessed := make(chan struct{}, 2)
	w, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		ctx.Guess(x)          // the speculative interval the send lands in
		ctx.Send(old, "once") // translated to the sink on its way out
		ok := ctx.Guess(y)    // the interval the denial rolls back
		mu.Lock()
		outcomes = append(outcomes, ok)
		mu.Unlock()
		guessed <- struct{}{}
		_, _, err := ctx.Recv()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	<-guessed
	if _, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		ctx.Deny(y)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !eng.Settle(30 * time.Second) {
		t.Fatal("no settle after the denial")
	}
	if st := w.Snapshot(); st.Err != nil {
		t.Fatalf("re-execution past the translated send failed: %v", st.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(outcomes, []bool{true, false}) {
		t.Fatalf("Guess(y) per execution = %v, want [true false]: the re-execution never replayed the send", outcomes)
	}
	if v := <-got; v != "once" {
		t.Fatalf("sink received %v, want once", v)
	}
	select {
	case v := <-got:
		t.Fatalf("the replayed send went out again: sink received %v", v)
	default:
	}
}

// captureNet records every frame the engine hands its transport and
// passes it on.
type captureNet struct {
	transport.Transport
	mu   sync.Mutex
	sent []*msg.Message
}

func (t *captureNet) Send(m *msg.Message) {
	t.mu.Lock()
	t.sent = append(t.sent, m)
	t.mu.Unlock()
	t.Transport.Send(m)
}

func (t *captureNet) Close() {}

// frames returns the captured frames of kind k.
func (t *captureNet) frames(k msg.Kind) []*msg.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*msg.Message
	for _, m := range t.sent {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

// heldMessages are messages a sender still holds, each with the field
// values it had when handed over.
type heldMessages struct {
	ms    []*msg.Message
	snaps []msg.Message
}

// hold snapshots m: from here on, nothing may write it.
func (h *heldMessages) hold(m *msg.Message) *msg.Message {
	h.ms = append(h.ms, m)
	h.snaps = append(h.snaps, *m)
	return m
}

func (h *heldMessages) check(t *testing.T) {
	t.Helper()
	for i, m := range h.ms {
		if !reflect.DeepEqual(*m, h.snaps[i]) {
			t.Errorf("a held message was rewritten: sent as %v, now %v", &h.snaps[i], m)
		}
	}
}

// newRingEngine is node 1 of a routed cluster, alone on a local
// transport under capture: frames for other nodes' routers are recorded
// and dead-lettered. The pacer is an hour away, so only an explicit
// flush resends a parked message.
func newRingEngine(t *testing.T, view *routeView) (*core.Engine, *captureNet) {
	capt := &captureNet{Transport: transport.NewLocal()}
	eng := core.NewEngine(core.Config{
		PIDBase:   1 << routePIDBits,
		Transport: capt,
		Routing: &core.RoutingConfig{
			Self: 1, NodeOf: routeNode, RouterPID: routeRouterPID,
			Owner:      func(ids.AID) (int, uint64, bool) { return view.get() },
			RetryEvery: time.Hour,
		},
	})
	t.Cleanup(eng.Shutdown)
	return eng, capt
}

// wantFrame asserts exactly one captured frame of m's kind for m.AID,
// addressed to `to` under `epoch`, and that it is not m itself.
func wantFrame(t *testing.T, capt *captureNet, m *msg.Message, to ids.PID, epoch uint64) {
	t.Helper()
	var hits []*msg.Message
	for _, f := range capt.frames(m.Kind) {
		if f.AID == m.AID {
			hits = append(hits, f)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("%d %s frames for %v went out, want 1", len(hits), m.Kind, m.AID)
	}
	if f := hits[0]; f == m || f.To != to || f.Epoch != epoch {
		t.Fatalf("%s went out as %v (epoch %d, same pointer %v), want a copy to %v under epoch %d",
			m.Kind, f, f.Epoch, f == m, to, epoch)
	}
}

// TestSentMessageIsNeverRewritten drives each way the addressing step
// re-addresses a message and asserts every message a sender still holds
// reads as it did when sent.
func TestSentMessageIsNeverRewritten(t *testing.T) {
	type row struct {
		name string
		run  func(t *testing.T, h *heldMessages)
	}
	var rows []row

	from := ids.PID(1<<routePIDBits + 5)
	iid := ids.IntervalID{Proc: from, Seq: 1, Epoch: 1}
	kinds := map[string]func(x ids.AID) *msg.Message{
		"guess":    func(x ids.AID) *msg.Message { return msg.Guess(from, iid, x) },
		"affirm":   func(x ids.AID) *msg.Message { return msg.Affirm(from, iid, x, []ids.AID{x + 1}) },
		"deny":     func(x ids.AID) *msg.Message { return msg.Deny(from, iid, x) },
		"retract":  func(x ids.AID) *msg.Message { return msg.Retract(from, iid, x) },
		"cutprobe": func(x ids.AID) *msg.Message { return msg.CutProbe(from, iid, x) },
	}
	for _, name := range []string{"guess", "affirm", "deny", "retract", "cutprobe"} {
		build := kinds[name]
		rows = append(rows, row{"ring-redirect/" + name, func(t *testing.T, h *heldMessages) {
			view := &routeView{}
			view.set(2, 7)
			eng, capt := newRingEngine(t, view)
			x, err := eng.NewAID()
			if err != nil {
				t.Fatal(err)
			}
			m := h.hold(build(x))
			eng.Net().Send(m)
			wantFrame(t, capt, m, routeRouterPID(2), 7)
		}})
	}

	rows = append(rows, row{"owner-unknown-park-then-flush", func(t *testing.T, h *heldMessages) {
		view := &routeView{} // no view yet: the Guess parks
		eng, capt := newRingEngine(t, view)
		x, err := eng.NewAID()
		if err != nil {
			t.Fatal(err)
		}
		m := h.hold(msg.Guess(from, iid, x))
		eng.Net().Send(m)
		if n := eng.Parked(); n != 1 || len(capt.frames(msg.KindGuess)) != 0 {
			t.Fatalf("owner unknown: %d parked, %d sent; want the Guess parked", n, len(capt.frames(msg.KindGuess)))
		}
		view.set(2, 3)
		eng.OwnershipChanged()
		wantFrame(t, capt, m, routeRouterPID(2), 3)
		if n := eng.Parked(); n != 0 {
			t.Fatalf("%d still parked after the flush", n)
		}
	}})

	// The park queue's rig (TestRetryQueueReparkOrder): two engines on a
	// simulated net, node 1's Batch frames recorded.
	rows = append(rows, row{"nack-retry-batch", func(t *testing.T, h *heldMessages) {
		net := netsim.New(netsim.Constant(100 * time.Microsecond))
		defer net.Close()
		rec := &recordNet{}
		capt := &captureNet{}
		c := newRetryCluster(net, []int{1, 2}, time.Hour, func(node int, tr transport.Transport) transport.Transport {
			if node != 1 {
				return tr
			}
			capt.Transport = tr
			rec.Transport = capt
			return rec
		})
		defer c.shutdown()
		c.views[1].set(2, 1) // node 1 routes to node 2 ...
		c.views[2].set(1, 1) // ... which believes node 1 owns everything: NACK
		sender := c.engines[1]
		var ms []*msg.Message
		for i := 0; i < 2; i++ {
			x, err := sender.NewAID()
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, h.hold(msg.Guess(from, iid, x)))
			sender.Net().Send(ms[i])
		}
		routeWaitFor(t, "both guesses to be NACKed and parked", func() bool {
			return sender.Parked() == 2
		})
		for _, routed := range capt.frames(msg.KindGuess) {
			h.hold(routed) // the NACKed copies, parked for the retry
		}
		for node := range c.views {
			c.views[node].set(2, 2)
		}
		sender.OwnershipChanged()
		routeWaitFor(t, "both guesses to reach the owner", func() bool {
			for _, m := range ms {
				if st, ok := c.engines[2].HostedState(m.AID); !ok || st != aid.Hot {
					return false
				}
			}
			return true
		})
		batches := rec.snapshot()
		if len(batches) != 1 || len(batches[0]) != 2 {
			t.Fatalf("retry emitted %v, want one Batch of both guesses", batches)
		}
		for i, b := range batches[0] {
			if b == ms[i] || b.AID != ms[i].AID || b.To != routeRouterPID(2) || b.Epoch != 2 {
				t.Errorf("batch[%d] = %v (epoch %d), want a copy of %v to node 2 under epoch 2", i, b, b.Epoch, ms[i])
			}
		}
		if s := sender.RoutingStats(); s.Nacked != 2 || s.Retries != 2 || s.Batched != 2 {
			t.Errorf("sender stats %+v, want 2 NACKed, retried and batched", s)
		}
	}})

	rows = append(rows, row{"transplant-translation", func(t *testing.T, h *heldMessages) {
		capt := &captureNet{Transport: transport.NewLocal()}
		eng := core.NewEngine(core.Config{Transport: capt})
		defer eng.Shutdown()
		old, reborn := ids.PID(9<<routePIDBits), ids.PID(8<<routePIDBits)
		eng.InstallTransplantMap([]core.TransplantPair{{Old: old, New: reborn}})
		m := h.hold(msg.Data(from, old, iid, nil, "x"))
		eng.Net().Send(m)
		if fs := capt.frames(msg.KindData); len(fs) != 1 || fs[0] == m || fs[0].To != reborn {
			t.Fatalf("Data went out as %v, want a copy to %v", fs, reborn)
		}
	}})

	// The transplant rig (TestTransplantAdoptReplayContinuation): a
	// corpseNet hands frames for dead node 1 back to the engine.
	rows = append(rows, row{"dead-frame-handback-then-install", func(t *testing.T, h *heldMessages) {
		capt := &captureNet{Transport: transport.NewLocal()}
		cnet := &corpseNet{Transport: capt, corpse: 1}
		cnet.corpseDead.Store(true)
		eng := core.NewEngine(core.Config{PIDBase: 3 << routePIDBits, Transport: cnet})
		defer eng.Shutdown()
		cnet.eng.Store(eng)
		old, reborn := ids.PID(1<<routePIDBits+3), ids.PID(2<<routePIDBits+3)
		m := h.hold(msg.Data(from, old, iid, nil, "x"))
		eng.Net().Send(m)
		if n := eng.Parked(); n != 1 {
			t.Fatalf("%d parked after the hand-back, want 1", n)
		}
		eng.InstallTransplantMap([]core.TransplantPair{{Old: old, New: reborn}})
		if fs := capt.frames(msg.KindData); len(fs) != 1 || fs[0] == m || fs[0].To != reborn {
			t.Fatalf("Data went out as %v, want a copy to %v", fs, reborn)
		}
		if n := eng.Parked(); n != 0 {
			t.Fatalf("%d still parked after the install", n)
		}
	}})

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			h := &heldMessages{}
			r.run(t, h)
			h.check(t)
		})
	}
}
