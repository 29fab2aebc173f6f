package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/transport"
)

// newPair builds two loopback-connected nodes and registers cleanup.
func newPair(t *testing.T, tracer trace.Tracer) (*Node, *Node) {
	t.Helper()
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0", Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0", Tracer: tracer})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.SetPeer(1, b.Addr())
	b.SetPeer(0, a.Addr())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNodeLocalDelivery(t *testing.T) {
	a, _ := newPair(t, nil)
	pid := PIDBase(0) + 7
	var got []*msg.Message
	var mu sync.Mutex
	a.Register(pid, func(m *msg.Message) { mu.Lock(); got = append(got, m); mu.Unlock() })
	a.Send(&msg.Message{Kind: msg.KindData, From: 1, To: pid, Payload: "local"})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Payload != "local" {
		t.Fatalf("local delivery failed: %v", got)
	}
	if st := a.Stats(); st.Data != 1 {
		t.Fatalf("stats = %v, want data=1", st)
	}
}

func TestNodeRemoteDeliveryBothDirections(t *testing.T) {
	a, b := newPair(t, nil)
	apid, bpid := PIDBase(0)+1, PIDBase(1)+1

	var mu sync.Mutex
	var atB, atA []string
	b.Register(bpid, func(m *msg.Message) {
		if s, ok := m.Payload.(string); ok {
			mu.Lock()
			atB = append(atB, s)
			mu.Unlock()
		}
	})
	a.Register(apid, func(m *msg.Message) {
		if s, ok := m.Payload.(string); ok {
			mu.Lock()
			atA = append(atA, s)
			mu.Unlock()
		}
	})

	a.Send(&msg.Message{Kind: msg.KindData, From: apid, To: bpid, Payload: "a->b"})
	b.Send(&msg.Message{Kind: msg.KindData, From: bpid, To: apid, Payload: "b->a"})
	// Control messages (no payload) cross the wire too.
	a.Send(msg.Guess(apid, ids.IntervalID{Proc: apid, Seq: 1, Epoch: 1}, ids.AID(bpid)))

	waitFor(t, 5*time.Second, "cross-node delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(atB) == 1 && len(atA) == 1 && b.Stats().Guess == 1
	})
	a.Drain()
	b.Drain()
	if a.Inflight() != 0 || b.Inflight() != 0 {
		t.Fatalf("inflight after drain: a=%d b=%d", a.Inflight(), b.Inflight())
	}
	ws := a.WireStats()
	if ws.FramesOut < 2 || ws.BytesOut == 0 || ws.Reconnects < 1 {
		t.Fatalf("wire stats look wrong: %v", ws)
	}
}

func TestNodeDeadLetter(t *testing.T) {
	a, b := newPair(t, nil)
	// Remote PID with no handler: counted dead on the receiving node.
	a.Send(&msg.Message{Kind: msg.KindData, From: 1, To: PIDBase(1) + 99, Payload: "nobody"})
	waitFor(t, 5*time.Second, "remote dead letter", func() bool { return b.Stats().Dead == 1 })
	// Locally owned PID with no handler: dead immediately on the sender.
	a.Send(&msg.Message{Kind: msg.KindData, From: 1, To: PIDBase(0) + 99, Payload: "nobody"})
	if a.Stats().Dead != 1 {
		t.Fatalf("local dead letter not counted: %v", a.Stats())
	}
}

// TestNodeFIFOConcurrentSenders drives many concurrent sender PIDs at
// one receiver and asserts per-pair FIFO: each sender's messages arrive
// in send order even though senders interleave arbitrarily.
func TestNodeFIFOConcurrentSenders(t *testing.T) {
	a, b := newPair(t, nil)
	const senders, perSender = 8, 200

	type rx struct {
		from ids.PID
		n    int
	}
	var mu sync.Mutex
	var got []rx
	dst := PIDBase(1) + 1
	b.Register(dst, func(m *msg.Message) {
		mu.Lock()
		got = append(got, rx{from: m.From, n: m.Payload.(int)})
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := PIDBase(0) + ids.PID(s+1)
			for i := 0; i < perSender; i++ {
				a.Send(&msg.Message{Kind: msg.KindData, From: from, To: dst, Payload: i})
			}
		}(s)
	}
	wg.Wait()
	waitFor(t, 10*time.Second, "all messages", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == senders*perSender
	})

	next := map[ids.PID]int{}
	mu.Lock()
	defer mu.Unlock()
	for _, r := range got {
		if r.n != next[r.from] {
			t.Fatalf("FIFO violated for %s: got %d, want %d", r.from, r.n, next[r.from])
		}
		next[r.from]++
	}
}

// TestNodeReconnectResend floods messages while repeatedly severing every
// connection. The receiver must still observe exactly 1..N in order:
// reconnect + resend with seq dedup loses nothing and reorders nothing.
func TestNodeReconnectResend(t *testing.T) {
	rec := trace.NewRecorder()
	a, b := newPair(t, rec)
	const total = 2000

	var mu sync.Mutex
	var got []int
	dst := PIDBase(1) + 1
	b.Register(dst, func(m *msg.Message) { mu.Lock(); got = append(got, m.Payload.(int)); mu.Unlock() })

	from := PIDBase(0) + 1
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				a.DropConnections()
				b.DropConnections()
			}
		}
	}()

	for i := 0; i < total; i++ {
		a.Send(&msg.Message{Kind: msg.KindData, From: from, To: dst, Payload: i})
		if i%100 == 0 {
			time.Sleep(time.Millisecond) // keep the chaos goroutine interleaved
		}
	}
	close(stop)
	chaos.Wait()

	waitFor(t, 30*time.Second, "all messages after drops", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == total
	})
	mu.Lock()
	for i, v := range got {
		if v != i {
			mu.Unlock()
			t.Fatalf("loss or reorder at %d: got %d", i, v)
		}
	}
	mu.Unlock()

	a.Drain()
	ws := a.WireStats()
	if ws.Reconnects < 2 {
		t.Fatalf("expected reconnects under chaos, got %v", ws)
	}
	t.Logf("wire stats after chaos: %v", ws)

	// The reconnect machinery reported itself on the trace stream.
	events := rec.Filter(trace.Transport)
	if len(events) == 0 {
		t.Fatal("no transport trace events emitted")
	}
}

// TestNodePeerAddressLate verifies sends queue until the peer's address
// is learned, then flow.
func TestNodePeerAddressLate(t *testing.T) {
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })

	var mu sync.Mutex
	var got []string
	dst := PIDBase(1) + 1
	b.Register(dst, func(m *msg.Message) { mu.Lock(); got = append(got, m.Payload.(string)); mu.Unlock() })

	a.Send(&msg.Message{Kind: msg.KindData, From: 1, To: dst, Payload: "queued"})
	time.Sleep(10 * time.Millisecond)
	a.SetPeer(1, b.Addr())
	waitFor(t, 5*time.Second, "queued send after SetPeer", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1 && got[0] == "queued"
	})
}

func TestPIDNamespace(t *testing.T) {
	for _, node := range []int{0, 1, 7, MaxNodes - 1} {
		base := PIDBase(node)
		if NodeOf(base+1) != node || NodeOf(base+0xFFFF) != node {
			t.Fatalf("NodeOf(PIDBase(%d)+k) != %d", node, node)
		}
	}
	if _, err := NewNode(NodeConfig{ID: MaxNodes, Listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("NewNode accepted out-of-range ID")
	}
	var _ transport.Transport = (*Node)(nil)
}

func TestNodeCloseUnblocksDrain(t *testing.T) {
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	// Peer 1 has no address: the frame stays queued forever.
	a.Send(&msg.Message{Kind: msg.KindData, From: 1, To: PIDBase(1) + 1, Payload: "stuck"})
	if a.Inflight() != 1 {
		t.Fatalf("inflight = %d, want 1", a.Inflight())
	}
	done := make(chan struct{})
	go func() { a.Drain(); close(done) }()
	a.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not unblock on Close")
	}
}

// TestNodeSendBoundedQueueRace hammers Send from many goroutines at a
// peer that never comes up. The per-peer queue must cap exactly at the
// configured frame bound, every overflow must be counted in QueueFull,
// no Send may block, and the overflow must be announced on the trace
// stream. Run under -race this also exercises the cap accounting
// against concurrent senders.
func TestNodeSendBoundedQueueRace(t *testing.T) {
	const capFrames = 64
	const senders, perSender = 8, 400
	rec := trace.NewRecorder()
	a, err := NewNode(NodeConfig{
		ID: 0, Listen: "127.0.0.1:0", Tracer: rec,
		Queue: transport.QueueLimits{MaxFrames: capFrames, MaxBytes: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	// Dead peer: the address is a port nothing listens on, so nothing is
	// ever written or acked and the queue can only grow.
	dead, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	a.SetPeer(1, deadAddr)

	dst := PIDBase(1) + 1
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := PIDBase(0) + ids.PID(s+1)
			for i := 0; i < perSender; i++ {
				a.Send(&msg.Message{Kind: msg.KindData, From: from, To: dst, Payload: i})
			}
		}(s)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("sends took %v: Send blocked on a dead peer", elapsed)
	}

	total := uint64(senders * perSender)
	ws := a.WireStats()
	if ws.QueuedFrames != capFrames {
		t.Fatalf("queued frames = %d, want exactly the cap %d", ws.QueuedFrames, capFrames)
	}
	if a.Inflight() != capFrames {
		t.Fatalf("inflight = %d, want %d", a.Inflight(), capFrames)
	}
	if ws.QueueFull != total-capFrames {
		t.Fatalf("QueueFull = %d, want %d (every send beyond the cap, no more, no less)",
			ws.QueueFull, total-capFrames)
	}
	overflow := false
	for _, e := range rec.Filter(trace.Transport) {
		if strings.Contains(e.Detail, "full") {
			overflow = true
		}
	}
	if !overflow {
		t.Fatal("queue overflow not announced on the trace stream")
	}

	// Shutdown with the peer still dead must not hang.
	done := make(chan struct{})
	go func() { a.Drain(); close(done) }()
	a.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not unblock on Close with a dead peer")
	}
}

// TestNodeSendBoundedQueueBytes caps the queue by bytes instead of
// frames: queued payload must never exceed the bound.
func TestNodeSendBoundedQueueBytes(t *testing.T) {
	const capBytes = 4096
	a, err := NewNode(NodeConfig{
		ID: 0, Listen: "127.0.0.1:0",
		Queue: transport.QueueLimits{MaxFrames: -1, MaxBytes: capBytes},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)

	payload := make([]byte, 256)
	for i := 0; i < 200; i++ {
		a.Send(&msg.Message{Kind: msg.KindData, From: 1, To: PIDBase(1) + 1, Payload: payload})
	}
	ws := a.WireStats()
	if ws.QueuedBytes > capBytes {
		t.Fatalf("queued bytes = %d, exceeds cap %d", ws.QueuedBytes, capBytes)
	}
	if ws.QueueFull == 0 {
		t.Fatal("no drops counted despite overflowing the byte cap")
	}
	if ws.QueuedFrames == 0 {
		t.Fatal("cap rejected everything; the queue should hold frames up to the bound")
	}
}

// TestNodeDrainForDeadPeer pins the shutdown-deadline path: Drain would
// wait forever on a peer that never acks, DrainFor must give up on time
// and report it.
func TestNodeDrainForDeadPeer(t *testing.T) {
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	dead, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	a.SetPeer(1, deadAddr)

	a.Send(&msg.Message{Kind: msg.KindData, From: 1, To: PIDBase(1) + 1, Payload: "stranded"})
	start := time.Now()
	if a.DrainFor(100 * time.Millisecond) {
		t.Fatal("DrainFor claimed success with a dead peer holding a frame")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("DrainFor took %v, want ~100ms", elapsed)
	}
	if a.Inflight() != 1 {
		t.Fatalf("inflight = %d, want 1", a.Inflight())
	}
}

// TestNodeGracefulCloseAcksTail sends a short burst (well under
// ackEvery) and closes the receiver right after delivery: the teardown
// ack flush must empty the sender's resend queue so its Drain returns
// without waiting on a peer that no longer exists.
func TestNodeGracefulCloseAcksTail(t *testing.T) {
	a, b := newPair(t, nil)
	delivered := make(chan struct{}, 8)
	dst := PIDBase(1) + 1
	b.Register(dst, func(*msg.Message) { delivered <- struct{}{} })

	// Warm up: the first dial replays anything queued before the
	// connection existed and counts it as resends, so take a baseline.
	a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: dst, Payload: -1})
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("warm-up delivery timed out")
	}
	a.Drain()
	base := a.WireStats().Resends

	const burst = 3 // < ackEvery: only the idle or teardown flush can ack it
	for i := 0; i < burst; i++ {
		a.Send(&msg.Message{Kind: msg.KindData, From: PIDBase(0) + 1, To: dst, Payload: i})
	}
	for i := 0; i < burst; i++ {
		select {
		case <-delivered:
		case <-time.After(5 * time.Second):
			t.Fatal("delivery timed out")
		}
	}
	b.Close()
	if !a.DrainFor(5 * time.Second) {
		t.Fatalf("sender did not drain after receiver's graceful close; stats %v", a.WireStats())
	}
	if ws := a.WireStats(); ws.Resends != base {
		t.Fatalf("graceful close forced %d spurious resends", ws.Resends-base)
	}
}

// TestPumpCoalesces pins the pump's one write path: a burst queued faster
// than the socket drains must share flushes (frames queued while a batch
// is being written join the same buffered write) and still arrive
// complete and in order.
func TestPumpCoalesces(t *testing.T) {
	a, b := newPair(t, nil)
	var mu sync.Mutex
	var got []int
	dst := PIDBase(1) + 1
	b.Register(dst, func(m *msg.Message) {
		mu.Lock()
		got = append(got, m.Payload.(int))
		mu.Unlock()
	})
	from := PIDBase(0) + 1

	// Connect first, so the burst measures the pump and not the dial.
	a.Send(&msg.Message{Kind: msg.KindData, From: from, To: dst, Payload: -1})
	if !a.DrainFor(10 * time.Second) {
		t.Fatalf("warm-up did not drain; stats %v", a.WireStats())
	}
	base := a.WireStats()

	const burst = 2000
	for i := 0; i < burst; i++ {
		a.Send(&msg.Message{Kind: msg.KindData, From: from, To: dst, Payload: i})
	}
	if !a.DrainFor(30 * time.Second) {
		t.Fatalf("burst did not drain; stats %v", a.WireStats())
	}

	ws := a.WireStats()
	frames, flushes := ws.FramesOut-base.FramesOut, ws.Flushes-base.Flushes
	if frames != burst {
		t.Fatalf("wrote %d frames for a burst of %d; stats %v", frames, burst, ws)
	}
	if flushes >= frames {
		t.Fatalf("%d flushes for %d frames: the pump did not coalesce", flushes, frames)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != burst+1 {
		t.Fatalf("delivered %d messages, want %d", len(got), burst+1)
	}
	for i, n := range got {
		if n != i-1 {
			t.Fatalf("message %d carries %d, want %d: lost, duplicated, or reordered", i, n, i-1)
		}
	}
}

func BenchmarkCodecEncode(b *testing.B) {
	m := &msg.Message{
		Kind: msg.KindAffirm, From: 3, To: 9,
		IID: ids.IntervalID{Proc: 3, Seq: 7, Epoch: 2},
		AID: 9, IDO: []ids.AID{1, 2, 3, 4},
	}
	b.ReportAllocs()
	buf := make([]byte, 0, 128)
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendMessage(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	m := &msg.Message{
		Kind: msg.KindAffirm, From: 3, To: 9,
		IID: ids.IntervalID{Proc: 3, Seq: 7, Epoch: 2},
		AID: 9, IDO: []ids.AID{1, 2, 3, 4},
	}
	data, err := EncodeMessage(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMessage(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeFloodBatched measures one-way send throughput and
// per-send allocation over loopback TCP.
func BenchmarkNodeFloodBatched(b *testing.B) {
	src, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	dst, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	defer dst.Close()
	src.SetPeer(1, dst.Addr())

	to := PIDBase(1) + 1
	dst.Register(to, func(*msg.Message) {})
	m := &msg.Message{Kind: msg.KindAffirm, From: PIDBase(0) + 1, To: to, AID: 7}
	src.Send(m)
	src.Drain() // connection + pools warm before the clock starts

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(m)
	}
	src.Drain()
}

func BenchmarkNodeLoopbackRoundTrip(b *testing.B) {
	a, err := NewNode(NodeConfig{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewNode(NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	defer c.Close()
	a.SetPeer(1, c.Addr())
	c.SetPeer(0, a.Addr())

	apid, cpid := PIDBase(0)+1, PIDBase(1)+1
	echoDone := make(chan struct{}, 1)
	c.Register(cpid, func(m *msg.Message) {
		c.Send(&msg.Message{Kind: msg.KindData, From: cpid, To: apid, Payload: m.Payload})
	})
	a.Register(apid, func(m *msg.Message) { echoDone <- struct{}{} })

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(&msg.Message{Kind: msg.KindData, From: apid, To: cpid, Payload: i})
		select {
		case <-echoDone:
		case <-time.After(10 * time.Second):
			b.Fatal("echo timed out")
		}
	}
	b.StopTimer()
	if ws := a.WireStats(); ws.FramesOut < uint64(b.N) {
		b.Fatalf("unexpected frame count: %v", ws)
	}
	_ = fmt.Sprintf
}
