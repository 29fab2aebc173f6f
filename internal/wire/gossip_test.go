package wire

import (
	"sync"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/cluster"
	"github.com/hope-dist/hope/internal/msg"
)

// TestClusterMaxIDMatchesWire pins the promise cluster's package doc
// makes: its member-ID space mirrors the wire layer's node-ID space
// without importing it.
func TestClusterMaxIDMatchesWire(t *testing.T) {
	if cluster.MaxID != MaxNodes {
		t.Fatalf("cluster.MaxID = %d, wire.MaxNodes = %d — the constants must stay equal", cluster.MaxID, MaxNodes)
	}
}

// gossipSink collects inbound gossip payloads per sender.
type gossipSink struct {
	mu   sync.Mutex
	got  map[int][][]byte
	wake chan struct{}
}

func newGossipSink() *gossipSink {
	return &gossipSink{got: make(map[int][][]byte), wake: make(chan struct{}, 1)}
}

func (s *gossipSink) onPayload(from int, payload []byte) {
	s.mu.Lock()
	s.got[from] = append(s.got[from], payload)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *gossipSink) count(from int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got[from])
}

func (s *gossipSink) last(from int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.got[from]
	if len(g) == 0 {
		return nil
	}
	return g[len(g)-1]
}

// TestGossipPushPull pushes a payload from a to b and asserts (1) b's
// OnPayload sees it, (2) b's Reply payload comes back to a's OnPayload
// on the same connection — the full push-pull round trip — and (3) the
// exchange stays out of band: no inflight frames, nothing to drain.
func TestGossipPushPull(t *testing.T) {
	sa, sb := newGossipSink(), newGossipSink()
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0", Gossip: Channel{
		OnPayload: sa.onPayload,
		Reply:     func(from int) []byte { return []byte("view-of-a") },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0", Gossip: Channel{
		OnPayload: sb.onPayload,
		Reply:     func(from int) []byte { return []byte("view-of-b") },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(1, b.Addr())

	if !a.Gossip(1, []byte("view-of-a")) {
		t.Fatal("gossip refused")
	}
	waitFor(t, 5*time.Second, "push to b", func() bool { return sb.count(0) >= 1 })
	if got := string(sb.last(0)); got != "view-of-a" {
		t.Fatalf("b received %q", got)
	}
	waitFor(t, 5*time.Second, "pull reply to a", func() bool { return sa.count(1) >= 1 })
	if got := string(sa.last(1)); got != "view-of-b" {
		t.Fatalf("a received reply %q", got)
	}
	if n := a.Inflight(); n != 0 {
		t.Fatalf("gossip counted as inflight: %d", n)
	}
	ws := a.WireStats()
	if c := ws.Channels[chanGossip]; c.Sent == 0 || c.Recv == 0 {
		t.Fatalf("gossip counters not advanced: %v", ws)
	}
	// Self- and empty-payload pushes are refused.
	if a.Gossip(0, []byte("x")) || a.Gossip(1, nil) {
		t.Fatal("accepted self or empty gossip")
	}
}

// TestGossipCoexistsWithMessages interleaves gossip with sequenced
// messages and asserts the message stream is untouched: every message
// delivered exactly once, in order, and Drain still reaches zero.
func TestGossipCoexistsWithMessages(t *testing.T) {
	sb := newGossipSink()
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0", Gossip: Channel{OnPayload: sb.onPayload}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(1, b.Addr())

	var mu sync.Mutex
	var order []int
	bpid := PIDBase(1) + 1
	b.Register(bpid, func(m *msg.Message) {
		mu.Lock()
		order = append(order, m.Payload.(int))
		mu.Unlock()
	})

	const N = 200
	for i := 0; i < N; i++ {
		a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: bpid, Payload: i})
		if i%10 == 0 {
			a.Gossip(1, []byte{byte(i)})
		}
	}
	a.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != N {
		t.Fatalf("delivered %d messages, want %d", len(order), N)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: gossip frames disturbed the seq stream", i, v)
		}
	}
	if sb.count(0) == 0 {
		t.Fatal("no gossip delivered")
	}
}

// TestDeclarePeerDeadByFiat drives the second-hand death path: a
// gossip-informed DeclarePeerDead must behave exactly like a detector
// timeout — queue dropped, Drain unblocked, state terminal — without
// waiting out DeadAfter.
func TestDeclarePeerDeadByFiat(t *testing.T) {
	var mu sync.Mutex
	var transitions []PeerState
	deadCh := make(chan int, 4)
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0", Health: HealthConfig{
		SuspectAfter: time.Hour, // the detector itself will never fire
		DeadAfter:    24 * time.Hour,
		OnPeerState: func(node int, st PeerState) {
			mu.Lock()
			transitions = append(transitions, st)
			mu.Unlock()
			if st == PeerDead {
				deadCh <- node
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Queue frames toward an unreachable peer, then declare it dead.
	a.SetPeer(1, "127.0.0.1:1") // nothing listens there
	for i := 0; i < 3; i++ {
		a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: PIDBase(1) + 1, Payload: i})
	}
	if a.Inflight() == 0 {
		t.Fatal("expected queued frames")
	}
	a.DeclarePeerDead(1)
	if st := a.HealthOf(1).State; st != PeerDead {
		t.Fatalf("state after fiat = %v", st)
	}
	waitFor(t, 5*time.Second, "queue drop", func() bool { return a.Inflight() == 0 })
	a.DeclarePeerDead(1) // idempotent
	a.DeclarePeerDead(0) // self: no-op
	expectDeathOnce(t, deadCh, 1)
	mu.Lock()
	if last := transitions[len(transitions)-1]; last != PeerDead {
		t.Fatalf("last transition = %v, want dead", last)
	}
	mu.Unlock()
	if st := a.HealthOf(0).State; st == PeerDead {
		t.Fatal("node declared itself dead")
	}
	if a.Gossip(1, []byte("x")) {
		t.Fatal("gossip to dead peer accepted")
	}
}

// TestDeclaredDeadBeforeFirstSend pins that a death is stored once, in
// the health record: a peer declared dead second-hand before this node
// ever addressed it is dead from the moment its send side is created.
// Its first Send goes to OnDeadFrame (so the routing layer can park or
// forward it) instead of queueing toward the corpse, nothing stays in
// flight, and the out-of-band channels refuse it too.
func TestDeclaredDeadBeforeFirstSend(t *testing.T) {
	var mu sync.Mutex
	var handed []*msg.Message
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0", Health: HealthConfig{
		SuspectAfter: time.Hour,
		DeadAfter:    24 * time.Hour,
		OnDeadFrame: func(to int, m *msg.Message) {
			mu.Lock()
			defer mu.Unlock()
			if to != 7 {
				t.Errorf("OnDeadFrame(to=%d), want node 7", to)
			}
			handed = append(handed, m)
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.DeclarePeerDead(7)
	m := &msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: PIDBase(7) + 1, Payload: "late"}
	a.Send(m)
	mu.Lock()
	got := len(handed)
	mu.Unlock()
	if got != 1 || handed[0] != m {
		t.Fatalf("OnDeadFrame calls = %d, want 1 with the sent message", got)
	}
	if n := a.Inflight(); n != 0 {
		t.Fatalf("Inflight = %d, want 0", n)
	}
	if q := a.HealthOf(7).QueuedFrames; q != 0 {
		t.Fatalf("QueuedFrames toward the corpse = %d, want 0", q)
	}
	if a.Gossip(7, []byte("x")) {
		t.Fatal("gossip to a peer declared dead was accepted")
	}
}

// TestOnPeerStateSuspectRecovery asserts the new per-transition
// callback reports Suspect and the recovery back to Alive.
func TestOnPeerStateSuspectRecovery(t *testing.T) {
	states := make(chan PeerState, 16)
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0", Health: HealthConfig{
		SuspectAfter: 60 * time.Millisecond,
		DeadAfter:    time.Hour, // never dead in this test
		OnPeerState:  func(node int, st PeerState) { states <- st },
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

	var delivered sync.WaitGroup
	delivered.Add(1)
	bpid := PIDBase(1) + 1
	var once sync.Once
	b.Register(bpid, func(*msg.Message) { once.Do(delivered.Done) })
	a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: bpid, Payload: "hello"})
	delivered.Wait()

	// The ping/ack round trip keeps the link alive; a suspicion can
	// only appear transiently. Instead sever the link so silence is
	// real, then wait for Suspect; restore traffic, wait for Alive.
	b.Close()
	waitFor(t, 10*time.Second, "suspect transition", func() bool {
		for {
			select {
			case st := <-states:
				if st == PeerSuspect {
					return true
				}
			default:
				return false
			}
		}
	})
}
