package wire

import (
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/msg"
)

// TestHealthDeadDeclaration kills one side of a pair and asserts the
// survivor's failure detector walks Alive → Suspect → Dead, drops the
// dead peer's resend queue (inflight goes to zero with nothing acked),
// fires OnPeerState(PeerDead) once, and drops post-death sends on the
// floor instead of queueing them forever.
func TestHealthDeadDeclaration(t *testing.T) {
	deadCh := make(chan int, 4)
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0", Health: HealthConfig{
		SuspectAfter: 50 * time.Millisecond,
		DeadAfter:    300 * time.Millisecond,
		OnPeerState: func(node int, st PeerState) {
			if st == PeerDead {
				deadCh <- node
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(1, b.Addr())
	b.SetPeer(0, a.Addr())

	var delivered atomic.Int32
	bpid := PIDBase(1) + 1
	b.Register(bpid, func(*msg.Message) { delivered.Add(1) })
	a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: bpid, Payload: "hi"})
	waitFor(t, 5*time.Second, "initial delivery", func() bool { return delivered.Load() == 1 })
	if st := a.HealthOf(1).State; st != PeerAlive {
		t.Fatalf("peer state after traffic = %v, want alive", st)
	}

	// Kill b, then queue frames that can never be acked.
	b.Close()
	for i := 0; i < 5; i++ {
		a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: bpid, Payload: i})
	}
	if a.Inflight() == 0 {
		t.Fatal("expected unacked frames queued toward the dead peer")
	}

	waitFor(t, 10*time.Second, "dead declaration", func() bool { return a.HealthOf(1).State == PeerDead })
	expectDeathOnce(t, deadCh, 1)
	// Dead declaration drops the resend queue: inflight drains without a
	// single ack from the corpse.
	waitFor(t, 5*time.Second, "queue drop", func() bool { return a.Inflight() == 0 })
	ws := a.WireStats()
	if ws.PeersDead != 1 || ws.DeadDrops == 0 {
		t.Fatalf("wire stats after death = %v, want dead=1 and deaddrop>0", ws)
	}

	// Sends to a dead peer are dropped immediately, not queued.
	a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: bpid, Payload: "late"})
	if got := a.Inflight(); got != 0 {
		t.Fatalf("inflight after post-death send = %d, want 0", got)
	}

	snap := a.PeerHealth()
	if len(snap) != 1 || snap[0].Node != 1 || snap[0].State != PeerDead || snap[0].QueuedFrames != 0 {
		t.Fatalf("PeerHealth = %+v, want node 1 dead with empty queue", snap)
	}
}

// TestHealthPingKeepsIdleLinkAlive leaves a fully idle link open well
// past the dead threshold: the idle-timer probe frames (and the forced
// acks they elicit) must keep supplying liveness evidence, so a healthy
// silent peer is never declared dead.
func TestHealthPingKeepsIdleLinkAlive(t *testing.T) {
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0", Health: HealthConfig{
		SuspectAfter: 60 * time.Millisecond,
		DeadAfter:    300 * time.Millisecond,
		ProbeEvery:   20 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(1, b.Addr())
	b.SetPeer(0, a.Addr())

	var delivered atomic.Int32
	bpid := PIDBase(1) + 1
	b.Register(bpid, func(*msg.Message) { delivered.Add(1) })
	a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: bpid, Payload: "hello"})
	waitFor(t, 5*time.Second, "initial delivery", func() bool { return delivered.Load() == 1 })

	// Idle for several dead-thresholds; the peer must stay undead.
	deadline := time.Now().Add(1 * time.Second)
	for time.Now().Before(deadline) {
		if st := a.HealthOf(1).State; st == PeerDead {
			t.Fatalf("idle but healthy peer declared dead (wire=%v)", a.WireStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A single instant can catch the peer transiently suspect (one probe
	// landing late on a starved host); the next probe/ack round must
	// restore alive. Death is sticky, so a wrongly-declared-dead peer
	// still fails here — via the timeout.
	waitFor(t, 2*time.Second, "idle peer back to alive", func() bool {
		return a.HealthOf(1).State == PeerAlive
	})
	if ws := a.WireStats(); ws.ProbesSent == 0 {
		t.Fatalf("no probes sent across an idle link: %v", ws)
	}
	if ws := b.WireStats(); ws.ProbesRecv == 0 {
		t.Fatalf("peer never saw a probe: %v", ws)
	}
}

// TestHealthRejectsDeadInbound: once a node has declared a peer dead,
// the verdict is sticky — a new inbound connection claiming that node ID
// is refused at the handshake, so a zombie (or an impostor reusing the
// ID) cannot resurrect the link.
func TestHealthRejectsDeadInbound(t *testing.T) {
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0", Health: HealthConfig{
		SuspectAfter: 30 * time.Millisecond,
		DeadAfter:    150 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(1, b.Addr())
	b.SetPeer(0, a.Addr())

	var delivered atomic.Int32
	bpid := PIDBase(1) + 1
	b.Register(bpid, func(*msg.Message) { delivered.Add(1) })
	a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: bpid, Payload: "hi"})
	waitFor(t, 5*time.Second, "initial delivery", func() bool { return delivered.Load() == 1 })
	b.Close()
	waitFor(t, 10*time.Second, "dead declaration", func() bool { return a.HealthOf(1).State == PeerDead })

	// A "new" node 1 comes back from the dead and dials in.
	b2, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2.SetPeer(0, a.Addr())
	var got atomic.Int32
	apid := PIDBase(0) + 9
	a.Register(apid, func(*msg.Message) { got.Add(1) })
	b2.Send(&msg.Message{Kind: msg.KindData, From: bpid, To: apid, Payload: "zombie"})

	time.Sleep(500 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("message from a declared-dead node ID was delivered")
	}
	if b2.Inflight() == 0 {
		t.Fatal("zombie's frame should still be queued, its handshakes refused")
	}
}

// TestReconnectBackoffSchedule pins the reconnect backoff: doubling from
// backoffInitial, capped at backoffMax, with the actual sleep jittered
// into [d/2, 3d/2).
func TestReconnectBackoffSchedule(t *testing.T) {
	want := []time.Duration{
		20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond,
		160 * time.Millisecond, 320 * time.Millisecond, 640 * time.Millisecond,
		1280 * time.Millisecond, backoffMax, backoffMax, backoffMax,
	}
	d := backoffInitial
	for i, w := range want {
		d = nextBackoff(d)
		if d != w {
			t.Fatalf("step %d: nextBackoff = %v, want %v", i, d, w)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		j := jitter(rng, time.Second)
		if j < 500*time.Millisecond || j >= 1500*time.Millisecond {
			t.Fatalf("jitter(1s) = %v, want in [500ms, 1.5s)", j)
		}
	}
}

// TestBackoffResetsAfterHandshake drives a peer through real failed
// dials until its backoff has grown past the initial value, then brings
// the target up and asserts a successful handshake snaps the backoff
// back to backoffInitial.
func TestBackoffResetsAfterHandshake(t *testing.T) {
	// Reserve an address, then free it so dials fail with a refusal.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetPeer(1, addr)
	bpid := PIDBase(1) + 1
	a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: bpid, Payload: "queued"})

	p := a.peer(1)
	backoffOf := func() time.Duration {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.backoffCur
	}
	waitFor(t, 10*time.Second, "backoff growth", func() bool { return backoffOf() > backoffInitial })
	if a.HealthOf(1).DialFailures == 0 {
		t.Fatal("no dial failures counted while the target was down")
	}

	b, err := NewNode(NodeConfig{ID: 1, Listen: addr})
	if err != nil {
		t.Skipf("could not re-listen on %s: %v", addr, err)
	}
	defer b.Close()
	b.SetPeer(0, a.Addr())
	var delivered atomic.Int32
	b.Register(bpid, func(*msg.Message) { delivered.Add(1) })

	waitFor(t, 15*time.Second, "delivery after reconnect", func() bool { return delivered.Load() == 1 })
	waitFor(t, 5*time.Second, "backoff reset", func() bool { return backoffOf() == backoffInitial })
}

// expectDeathOnce asserts that deaths, fed by OnPeerState(PeerDead),
// reports node once and nothing after it.
func expectDeathOnce(t *testing.T, deaths <-chan int, node int) {
	t.Helper()
	select {
	case n := <-deaths:
		if n != node {
			t.Fatalf("OnPeerState(%d, dead), want node %d", n, node)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnPeerState(PeerDead) never fired")
	}
	select {
	case n := <-deaths:
		t.Fatalf("OnPeerState(%d, dead) fired a second time", n)
	case <-time.After(100 * time.Millisecond):
	}
}
