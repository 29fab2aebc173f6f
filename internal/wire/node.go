package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/transport"
)

// PID namespacing: the top 16 bits of a PID name the node that allocated
// it, so routing needs no directory — the PID is the address.
const nodeShift = 48

// MaxNodes is the number of distinct node IDs the PID namespace can hold.
const MaxNodes = 1 << 16

// PIDBase returns the exclusive lower bound of node's PID namespace.
// Pass it to core.Config.PIDBase (or hope.WithPIDBase) on that node.
func PIDBase(node int) ids.PID { return ids.PID(uint64(node) << nodeShift) }

// NodeOf returns the ID of the node that owns pid.
func NodeOf(pid ids.PID) int { return int(uint64(pid) >> nodeShift) }

// RouterPID returns the well-known PID of node's adjudication router —
// the process that receives ring-routed AID messages when ownership
// routing is on (core.RoutingConfig). The high bit inside the node's
// namespace keeps it clear of allocator-issued PIDs, which count up
// from PIDBase.
func RouterPID(node int) ids.PID { return PIDBase(node) | ids.PID(uint64(1)<<(nodeShift-1)) }

// Frame types on a wire connection. Connections are unidirectional for
// message flow: the dialer sends hello + msg frames, the acceptor sends
// helloAck + ack frames back on the same connection.
const (
	frameHello      = 1 // dialer → acceptor: version, sender node ID
	frameHelloAck   = 2 // acceptor → dialer: highest delivered seq (resume point)
	frameMsg        = 3 // dialer → acceptor: seq + encoded message
	frameAck        = 4 // acceptor → dialer: highest delivered seq
	framePing       = 5 // dialer → acceptor: liveness probe; answered with a forced ack
	frameGossip     = 6 // either direction: opaque membership payload, out of band
	frameStability  = 7 // either direction: opaque stability-round payload, out of band
	frameTransfer   = 8 // either direction: opaque shard-migration payload, out of band
	frameTransplant = 9 // either direction: opaque transplant-announcement payload, out of band
)

// The out-of-band channels, in frame-type order: channel ch travels as
// frame type frameGossip+ch (see Channel).
const (
	chanGossip = iota
	chanStability
	chanTransfer
	chanTransplant
	nChan
)

// chanNames labels each channel in WireStats.String.
var chanNames = [nChan]string{"gossip", "stab", "xfer", "tpl"}

// chanBound bounds each peer's pending payloads per channel. Every
// channel's loss is repaired above the wire, so when a slow link falls
// behind the oldest pending payload is dropped, never the newest:
//   - gossip is anti-entropy: each payload supersedes the last;
//   - stability rounds are self-correcting: a dropped sweep or report
//     only delays the next frontier advance;
//   - a dropped transfer batch is re-exported on the next view change,
//     the receiver lazily re-creates missing machines Cold, and a dead
//     owner's WAL is the fallback;
//   - a dropped transplant announcement is re-announced on demand, and
//     frames bound for a dead incarnation park on the would-be sender
//     until a mapping arrives.
var chanBound = [nChan]int{chanGossip: 4, chanStability: 8, chanTransfer: 16, chanTransplant: 16}

// chanOf maps an out-of-band frame type to its channel.
func chanOf(ftype byte) (int, bool) {
	ch := int(ftype) - frameGossip
	return ch, ch >= 0 && ch < nChan
}

// maxFrame bounds a frame read so a corrupt length prefix cannot force a
// huge allocation.
const maxFrame = 1 << 26

// Every frame body (type byte through payload) is followed by a CRC32C
// trailer. TCP's checksum only covers a single hop; a byzantine middlebox
// (or the chaos proxy in internal/faultwire) can flip bits between hops,
// and without an end-to-end check a flipped ack sequence number would
// silently advance the sender's prune watermark and lose frames. A
// mismatch drops the connection without consuming the frame, so the
// reconnect handshake and resend path turn corruption into a retry.
const crcLen = 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Reconnect/ack tuning.
const (
	dialTimeout      = 5 * time.Second
	handshakeTimeout = 10 * time.Second
	backoffInitial   = 10 * time.Millisecond
	backoffMax       = 2 * time.Second
	ackEvery         = 32                    // ack at least every N delivered frames
	ackFlushInterval = 20 * time.Millisecond // idle ack flush period
)

// NodeConfig parameterizes a Node.
type NodeConfig struct {
	// ID is this node's index in [0, MaxNodes). It determines the PID
	// namespace the colocated engine must allocate from (PIDBase).
	ID int
	// Listen is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// port; see Node.Addr).
	Listen string
	// Peers statically maps node IDs to addresses. Entries may also be
	// added later with SetPeer (e.g. once a peer's ephemeral port is
	// known). The node's own entry is ignored.
	Peers map[int]string
	// Tracer receives trace.Transport events (nil = discard).
	Tracer trace.Tracer
	// Queue bounds each peer's resend queue. Zero fields take the
	// transport defaults (64Ki frames / 64 MiB); negative fields mean
	// unlimited. When a send would exceed either bound the frame is
	// dropped fail-fast — counted in WireStats.QueueFull and announced
	// on the trace stream — so Send never blocks and node memory stays
	// bounded no matter how long a peer is unreachable.
	Queue transport.QueueLimits
	// Durable, when non-nil, receives the write-ahead-log callbacks that
	// make the node's wire state crash-recoverable (see DurableHooks).
	Durable DurableHooks
	// Resume, when non-nil, seeds the node with the wire state recovered
	// from a previous incarnation's WAL: sequence spaces continue where
	// they left off, the unacked tail is requeued for resend, and
	// already-delivered frames from each sender are deduplicated.
	Resume *Resume
	// Health parameterizes the per-peer failure detector: heartbeats
	// piggyback on the existing frame/ack streams, an idle-timer ping
	// frame probes quiet links, and a peer silent past DeadAfter is
	// declared Dead — its resend queue dropped, its dialer stopped, and
	// OnPeerState fired. The zero value disables the detector (health is
	// still tracked passively; see Node.PeerHealth).
	Health HealthConfig
	// The out-of-band channels (see Channel). Gossip carries membership
	// views push-pull (its Reply answers each push); Stability carries
	// commit-watermark rounds; Transfer ships AID machine exports to a
	// new owner; Transplant broadcasts old→new incarnation mappings.
	Gossip, Stability, Transfer, Transplant Channel
	// Watermark advertises this node's commit-watermark mode in the
	// connection handshake. A definite mismatch (both sides advertise,
	// differently) is refused at connection time with a clear error
	// event on both ends — mixing watermark modes across a deployment
	// corrupts the commit protocol far more confusingly downstream.
	// WatermarkUnknown (the zero value) advertises nothing and accepts
	// everyone, preserving compatibility with peers that predate the
	// handshake field.
	Watermark WatermarkMode
	// HoldInbound binds the listener in NewNode but defers accepting
	// connections until ReleaseInbound is called. A recovering node
	// needs this: delivered-but-unconsumed messages from the WAL must be
	// re-injected before peers can resend their newer unacked frames, or
	// the new frames (whose sequence numbers are past the restored
	// watermark) are delivered first and per-pair FIFO order inverts
	// across the restart. The kernel's listen backlog parks peers that
	// redial during the hold.
	HoldInbound bool
}

// Channel hooks one layer into the transport's out-of-band plane
// (DESIGN.md §7, "Out-of-band channels"). Its frames are not sequenced,
// acked, resent or written to the WAL, and not counted in Inflight or
// MsgSeqs: each layer repairs its own losses, and a stability round
// must observe "every sequenced frame is drained" without its own
// traffic perturbing that condition. They do count as liveness evidence
// for the failure detector, like message and ack frames.
type Channel struct {
	// OnPayload receives each inbound payload (a fresh copy; the
	// callback may retain it). Called synchronously from the
	// connection's read loop — keep it quick, and never call back into a
	// blocking Node method from it.
	OnPayload func(from int, payload []byte)
	// Reply, when non-nil, produces the payload the acceptor sends back
	// on the same connection for each frame it receives (nil or empty =
	// no reply). Only the acceptor replies, so one push costs at most
	// one round trip and loops cannot form.
	Reply func(from int) []byte
}

// StabilityConfig is the stability channel's former type name, kept
// only for callers that still spell it; ROADMAP item 6(c) deletes it.
type StabilityConfig = Channel

// WatermarkMode is a node's commit-watermark stance, advertised in the
// wire handshake so mismatched deployments fail at connection time
// instead of corrupting the commit protocol.
type WatermarkMode uint8

const (
	// WatermarkUnknown advertises nothing and matches everything (the
	// pre-handshake-field behavior).
	WatermarkUnknown WatermarkMode = iota
	// WatermarkOff: the node runs without the commit watermark.
	WatermarkOff
	// WatermarkOn: the node runs in revocable-commit watermark mode.
	WatermarkOn
)

// String implements fmt.Stringer.
func (m WatermarkMode) String() string {
	switch m {
	case WatermarkOff:
		return "off"
	case WatermarkOn:
		return "on"
	default:
		return "unknown"
	}
}

// Node is a TCP transport endpoint implementing transport.Transport.
// Messages to PIDs registered locally are delivered synchronously;
// messages to PIDs owned by other nodes are sequenced, framed, and
// written over a persistent per-peer connection. Connection loss is
// survived by reconnecting with exponential backoff and resending every
// unacknowledged frame; the receiver discards duplicates by sequence
// number, so each message is delivered exactly once and per-pair FIFO
// order is preserved end to end.
type Node struct {
	id     int
	tracer trace.Tracer
	ln     net.Listener
	queue  transport.QueueLimits // normalized per-peer bounds
	dur    DurableHooks          // nil = no durability
	health HealthConfig          // normalized failure-detector config
	chans  [nChan]Channel        // out-of-band hooks by channel (zero = none)
	wmMode WatermarkMode         // advertised in the handshake; mismatches are refused

	mu       sync.Mutex
	idle     *sync.Cond // signalled when inflight returns to zero
	handlers map[ids.PID]transport.Handler
	peers    map[int]*peer
	inbound  map[int]*inbound
	conns    map[net.Conn]struct{} // every live conn, for Drop/Close
	inConns  map[net.Conn]int      // inbound conn → sender node, for dead-peer teardown
	ackFlush map[net.Conn]func()   // per-inbound-conn pending-ack flushers
	closed   bool
	held     bool // accept loop not yet started (NodeConfig.HoldInbound)
	inflight int  // frames accepted for remote delivery, not yet acked

	healthMu   sync.Mutex
	peerHealth map[int]*peerHealth
	healthStop chan struct{} // closed by Close to stop the monitor
	healthDone chan struct{} // closed when the monitor has exited

	counts transport.Counters // delivered messages by kind; 0 = dead letters

	bytesIn, bytesOut     atomic.Uint64
	framesOut, framesIn   atomic.Uint64
	resends, reconnects   atomic.Uint64
	acksSent, acksRecv    atomic.Uint64
	encodeErr, decodeErr  atomic.Uint64
	duplicates, dialFails atomic.Uint64
	queueFull, flushes    atomic.Uint64
	crcErrors             atomic.Uint64
	probesSent            atomic.Uint64
	probesRecv            atomic.Uint64
	deadDrops             atomic.Uint64
	modeRejects           atomic.Uint64
	oobSent, oobRecv      [nChan]atomic.Uint64
	oobDrops              [nChan]atomic.Uint64
}

var _ transport.Transport = (*Node)(nil)

// WireStats is a snapshot of the transport-level counters (message
// delivery counts by kind live in transport.Stats; see Node.Stats).
type WireStats struct {
	BytesIn, BytesOut   uint64
	FramesIn, FramesOut uint64
	Resends             uint64 // frames rewritten after a reconnect
	Reconnects          uint64 // successful connection (re)establishments
	AcksSent, AcksRecv  uint64
	EncodeErrors        uint64
	DecodeErrors        uint64
	Duplicates          uint64 // frames discarded by the receiver's dedup
	CRCErrors           uint64 // frames rejected by the end-to-end checksum
	DialFailures        uint64
	QueueFull           uint64 // frames dropped: peer resend queue at its cap
	Flushes             uint64 // coalesced write flushes (FramesOut/Flushes = batch size)
	QueuedFrames        uint64 // gauge: frames currently queued across peers
	QueuedBytes         uint64 // gauge: encoded bytes currently queued across peers
	ProbesSent          uint64 // liveness ping frames written
	ProbesRecv          uint64 // liveness ping frames received (each forces an ack)
	DeadDrops           uint64 // frames dropped because their peer was declared dead
	ModeRejects         uint64 // connections refused for a watermark-mode mismatch
	PeersSuspect        int    // gauge: peers currently in Suspect
	PeersDead           int    // gauge: peers declared Dead (terminal)
	// Channels counts each out-of-band channel's frames, indexed gossip,
	// stability, transfer, transplant (NodeConfig's order).
	Channels [nChan]ChannelStats

	// Durable reports whether the node runs with a WAL; WAL holds that
	// log's counters when it does.
	Durable bool
	WAL     DurableStats
}

// ChannelStats counts one out-of-band channel's frames.
type ChannelStats struct {
	Sent  uint64 // frames written (pushes and replies)
	Recv  uint64 // frames received
	Drops uint64 // pending payloads superseded before the write
}

// String implements fmt.Stringer.
func (s WireStats) String() string {
	base := fmt.Sprintf("in=%dB/%df out=%dB/%df resends=%d reconnects=%d acks=%d/%d dup=%d crc=%d enc=%d dec=%d dialfail=%d qfull=%d flushes=%d queued=%df/%dB",
		s.BytesIn, s.FramesIn, s.BytesOut, s.FramesOut, s.Resends, s.Reconnects,
		s.AcksSent, s.AcksRecv, s.Duplicates, s.CRCErrors, s.EncodeErrors, s.DecodeErrors,
		s.DialFailures, s.QueueFull, s.Flushes, s.QueuedFrames, s.QueuedBytes)
	if s.ProbesSent != 0 || s.ProbesRecv != 0 || s.PeersSuspect != 0 || s.PeersDead != 0 || s.DeadDrops != 0 {
		base += fmt.Sprintf(" probes=%d/%d suspect=%d dead=%d deaddrop=%d",
			s.ProbesSent, s.ProbesRecv, s.PeersSuspect, s.PeersDead, s.DeadDrops)
	}
	for ch, c := range s.Channels {
		if c.Sent != 0 || c.Recv != 0 {
			base += fmt.Sprintf(" %s=%d/%d drop=%d", chanNames[ch], c.Sent, c.Recv, c.Drops)
		}
	}
	if s.ModeRejects != 0 {
		base += fmt.Sprintf(" moderej=%d", s.ModeRejects)
	}
	if s.Durable {
		base += " " + s.WAL.String()
	}
	return base
}

// inbound is the receive-side state for one remote sender node. It
// persists across that sender's connections: delivered is the resume
// point reported in helloAck, and the dedup bar for resent frames.
type inbound struct {
	mu        sync.Mutex
	delivered uint64 // highest contiguous seq delivered
}

// outFrame is one sequenced, already-encoded message awaiting ack. Its
// buffer comes from the codec's encode pool and is recycled when the
// frame retires (unless the pump has it pinned for writing).
type outFrame struct {
	seq uint64
	buf *encodeBuf
}

// peer is the send side toward one remote node: a resend queue of
// unacknowledged frames plus the goroutine that dials, handshakes, and
// pumps writes.
type peer struct {
	n  *Node
	id int

	mu         sync.Mutex
	cond       *sync.Cond
	addr       string
	queue      []outFrame // unacked frames, ascending seq
	queueBytes int        // sum of len(buf.b) across queue
	cursor     int        // index into queue of the next frame to write
	nextSeq    uint64
	conn       net.Conn
	gen        uint64 // connection generation, guards stale readers
	closed     bool
	probe      bool            // monitor requested a ping frame on the live connection
	oob        [nChan][][]byte // pending out-of-band payloads by channel (bounded by chanBound; oldest dropped)
	full       bool            // inside a queue-overflow episode (one trace event each)
	backoffCur time.Duration   // last reconnect backoff used (observable for tests)
	health     *peerHealth

	// pinLo..pinHi (inclusive, 0 = none) is the seq range the pump is
	// writing outside the lock. Frames retired while pinned are removed
	// from the queue but their buffers are left to the GC instead of the
	// pool: recycling a buffer mid-write would hand it to a concurrent
	// encode and corrupt the bytes on the socket.
	pinLo, pinHi uint64
}

// gone: the node closed, or the health record reads Dead, so a peer
// created after its death is dead from creation. Callers hold p.mu.
func (p *peer) gone() bool { return p.closed || PeerState(p.health.state.Load()) == PeerDead }

// releaseLocked recycles the buffers of retired frames, skipping any the
// pump currently has pinned. Callers hold p.mu.
func (p *peer) releaseLocked(frames []outFrame) {
	for _, f := range frames {
		if p.pinHi != 0 && f.seq >= p.pinLo && f.seq <= p.pinHi {
			continue
		}
		putEncodeBuf(f.buf)
	}
}

// NewNode binds cfg.Listen and starts serving. The returned node is
// ready to Register handlers and Send; outbound connections are dialed
// lazily on first use and redialed forever (with backoff) on failure.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID < 0 || cfg.ID >= MaxNodes {
		return nil, fmt.Errorf("wire: node ID %d out of range [0,%d)", cfg.ID, MaxNodes)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", cfg.Listen, err)
	}
	tr := cfg.Tracer
	if tr == nil {
		tr = trace.Nop
	}
	n := &Node{
		id:         cfg.ID,
		tracer:     tr,
		ln:         ln,
		queue:      cfg.Queue.Norm(),
		dur:        cfg.Durable,
		health:     cfg.Health.norm(),
		chans:      [nChan]Channel{cfg.Gossip, cfg.Stability, cfg.Transfer, cfg.Transplant},
		wmMode:     cfg.Watermark,
		handlers:   make(map[ids.PID]transport.Handler),
		peers:      make(map[int]*peer),
		inbound:    make(map[int]*inbound),
		conns:      make(map[net.Conn]struct{}),
		inConns:    make(map[net.Conn]int),
		ackFlush:   make(map[net.Conn]func()),
		peerHealth: make(map[int]*peerHealth),
		healthStop: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	n.idle = sync.NewCond(&n.mu)
	if n.health.enabled() {
		go n.monitor()
	} else {
		close(n.healthDone)
	}
	n.resume(cfg.Resume)
	for id, addr := range cfg.Peers {
		if id != cfg.ID {
			n.SetPeer(id, addr)
		}
	}
	if cfg.HoldInbound {
		n.held = true
		n.event("wire: node %d bound %s, holding inbound for recovery", n.id, ln.Addr())
	} else {
		go n.acceptLoop()
		n.event("wire: node %d listening on %s", n.id, ln.Addr())
	}
	return n, nil
}

// ReleaseInbound starts accepting connections on a node built with
// HoldInbound, once its owner has finished re-injecting recovered
// state. Idempotent; a no-op on nodes that never held.
func (n *Node) ReleaseInbound() {
	n.mu.Lock()
	start := n.held && !n.closed
	n.held = false
	n.mu.Unlock()
	if start {
		go n.acceptLoop()
		n.event("wire: node %d listening on %s", n.id, n.ln.Addr())
	}
}

// resume seeds the node with recovered wire state. Called from NewNode
// before the accept loop or any dialing starts.
func (n *Node) resume(r *Resume) {
	if r == nil {
		return
	}
	for from, seq := range r.Delivered {
		n.inbound[from] = &inbound{delivered: seq}
	}
	total := 0
	for id, pr := range r.Peers {
		if id == n.id {
			continue
		}
		p := n.peer(id)
		p.mu.Lock()
		p.nextSeq = pr.NextSeq
		for _, f := range pr.Frames {
			// Recovered frames wrap their own buffers (not pool-backed);
			// the pool accepts them back when they retire.
			p.queue = append(p.queue, outFrame{seq: f.Seq, buf: &encodeBuf{b: f.Frame}})
			p.queueBytes += len(f.Frame)
		}
		p.mu.Unlock()
		total += len(pr.Frames)
	}
	if total > 0 {
		n.mu.Lock()
		n.inflight += total
		n.mu.Unlock()
		n.event("wire: node %d resumed %d unacked frames from WAL", n.id, total)
	}
}

// ID returns this node's index.
func (n *Node) ID() int { return n.id }

// Addr returns the bound listen address (resolves ":0" to the real port).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// SetPeer maps a node ID to its address. Safe to call at any time; a
// peer whose sends were queued before its address was known starts
// dialing as soon as the address arrives.
func (n *Node) SetPeer(id int, addr string) {
	p := n.peer(id)
	p.mu.Lock()
	p.addr = addr
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Gossip queues a membership payload toward a peer (see send).
func (n *Node) Gossip(to int, payload []byte) bool { return n.send(chanGossip, to, payload) }

// Stability queues a commit-watermark round payload toward a peer.
func (n *Node) Stability(to int, payload []byte) bool { return n.send(chanStability, to, payload) }

// Transfer queues a shard-migration payload toward a peer.
func (n *Node) Transfer(to int, payload []byte) bool { return n.send(chanTransfer, to, payload) }

// Transplant queues a transplant announcement toward a peer.
func (n *Node) Transplant(to int, payload []byte) bool { return n.send(chanTransplant, to, payload) }

// send queues one payload on channel ch toward a peer, best-effort. It
// reports whether the payload was accepted for writing — false when the
// peer is dead, the node closed, the target is self or the payload
// empty. The payload is copied; the caller keeps the buffer. At most
// chanBound[ch] payloads wait per peer on ch; beyond that, the oldest
// pending payload is superseded.
func (n *Node) send(ch, to int, payload []byte) bool {
	if to == n.id || len(payload) == 0 {
		return false
	}
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return false
	}
	p := n.peer(to)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gone() {
		return false
	}
	q := p.oob[ch]
	if len(q) >= chanBound[ch] {
		q = q[1:]
		n.oobDrops[ch].Add(1)
	}
	p.oob[ch] = append(q, append([]byte(nil), payload...))
	p.cond.Broadcast()
	return true
}

// MsgSeqs snapshots the sequenced message stream's per-peer state: Sent
// maps each peer to the last sequence number assigned toward it, and
// Delivered maps each sender to the highest contiguous sequence
// delivered from it. The stability layer pairs two such snapshots to
// prove the sequenced stream was drained across a cut — out-of-band
// frames (gossip, stability, pings, acks) are deliberately invisible
// here, because they carry no protocol state a cut must wait for.
func (n *Node) MsgSeqs() (sent, delivered map[int]uint64) {
	n.mu.Lock()
	peers := make(map[int]*peer, len(n.peers))
	for id, p := range n.peers {
		peers[id] = p
	}
	ins := make(map[int]*inbound, len(n.inbound))
	for id, in := range n.inbound {
		ins[id] = in
	}
	n.mu.Unlock()

	sent = make(map[int]uint64, len(peers))
	for id, p := range peers {
		p.mu.Lock()
		sent[id] = p.nextSeq
		p.mu.Unlock()
	}
	delivered = make(map[int]uint64, len(ins))
	for id, in := range ins {
		in.mu.Lock()
		delivered[id] = in.delivered
		in.mu.Unlock()
	}
	return sent, delivered
}

// peer returns (creating if needed) the send-side state for node id.
func (n *Node) peer(id int) *peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[id]
	if p == nil {
		p = &peer{n: n, id: id, health: n.healthOf(id)}
		p.cond = sync.NewCond(&p.mu)
		n.peers[id] = p
		go p.run()
	}
	return p
}

// event emits a trace.Transport event.
func (n *Node) event(format string, args ...any) {
	n.tracer.Emit(trace.Event{Kind: trace.Transport, Detail: fmt.Sprintf(format, args...)})
}

// Register implements transport.Transport.
func (n *Node) Register(pid ids.PID, h transport.Handler) {
	n.mu.Lock()
	n.handlers[pid] = h
	n.mu.Unlock()
}

// Unregister implements transport.Transport.
func (n *Node) Unregister(pid ids.PID) {
	n.mu.Lock()
	delete(n.handlers, pid)
	n.mu.Unlock()
}

// Send implements transport.Transport. Local destinations are delivered
// synchronously (the engine's default zero-latency semantics); remote
// destinations are encoded once, sequenced, and queued on the owning
// peer's resend queue. Send never blocks on the network.
func (n *Node) Send(m *msg.Message) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	h := n.handlers[m.To]
	n.mu.Unlock()

	if h != nil {
		n.counts.Observe(m.Kind)
		h(m)
		return
	}
	if !m.To.Valid() {
		n.counts.Observe(0)
		n.consumedDeadLetter(m)
		return
	}
	owner := NodeOf(m.To)
	if owner == n.id {
		// Locally owned PID with no handler: dead letter, like netsim.
		n.counts.Observe(0)
		n.consumedDeadLetter(m)
		return
	}

	eb := getEncodeBuf()
	data, err := AppendMessage(eb.b[:0], m)
	if err != nil {
		putEncodeBuf(eb)
		n.encodeErr.Add(1)
		n.event("wire: node %d dropped unencodable %s to node %d: %v", n.id, m.Kind, owner, err)
		return
	}
	eb.b = data
	p := n.peer(owner)

	n.mu.Lock()
	n.inflight++
	n.mu.Unlock()

	p.mu.Lock()
	if p.gone() {
		dead := PeerState(p.health.state.Load()) == PeerDead
		p.mu.Unlock()
		putEncodeBuf(eb)
		if dead {
			n.deadDrops.Add(1)
			if cb := n.health.OnDeadFrame; cb != nil {
				// The caller's message is ours to hand back: local
				// deliveries consume it synchronously, so nothing else
				// aliases it after Send returns.
				cb(owner, m)
			}
		}
		n.retire(1)
		return
	}
	if !n.queue.Allows(len(p.queue)+1, p.queueBytes+len(data)) {
		// Overflow policy: fail fast. The new frame is dropped (never a
		// queued one — that would tear a hole in the seq stream), the
		// caller is not blocked, and the drop is visible in
		// WireStats.QueueFull plus one trace event per overflow episode.
		firstOfEpisode := !p.full
		p.full = true
		frames, bytes := len(p.queue), p.queueBytes
		p.mu.Unlock()
		putEncodeBuf(eb)
		n.queueFull.Add(1)
		n.retire(1)
		if firstOfEpisode {
			n.event("wire: node %d queue to node %d full (%d frames / %d bytes): dropping new sends",
				n.id, owner, frames, bytes)
		}
		return
	}
	p.nextSeq++
	p.queue = append(p.queue, outFrame{seq: p.nextSeq, buf: eb})
	p.queueBytes += len(data)
	if n.dur != nil {
		// Record the admitted frame under the peer lock so WAL order
		// matches seq order; the pump syncs before the socket write.
		n.dur.FrameQueued(owner, p.nextSeq, data)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// retire retires k in-flight frames, waking Drain when none remain.
func (n *Node) retire(k int) {
	if k == 0 {
		return
	}
	n.mu.Lock()
	n.inflight -= k
	if n.inflight == 0 {
		n.idle.Broadcast()
	}
	n.mu.Unlock()
}

// Inflight implements transport.Transport: frames accepted for remote
// delivery and not yet acknowledged by their peer. (Messages queued
// inside remote nodes are not visible; distributed quiescence is an
// application-level property.)
func (n *Node) Inflight() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inflight
}

// Drain implements transport.Transport: it blocks until every frame
// accepted so far has been acknowledged by its destination node.
func (n *Node) Drain() {
	n.mu.Lock()
	for n.inflight > 0 {
		n.idle.Wait()
	}
	n.mu.Unlock()
}

// DrainFor is Drain with a deadline: it blocks until every accepted
// frame is acknowledged or d elapses, and reports whether the node
// drained. Use it on shutdown paths that must not hang on an
// unreachable peer; Drain alone waits forever for frames queued toward
// a node that never comes back.
func (n *Node) DrainFor(d time.Duration) bool {
	deadline := time.Now().Add(d)
	timer := time.AfterFunc(d, func() {
		n.mu.Lock()
		n.idle.Broadcast()
		n.mu.Unlock()
	})
	defer timer.Stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.inflight > 0 && time.Now().Before(deadline) {
		n.idle.Wait()
	}
	return n.inflight == 0
}

// Close implements transport.Transport: it stops the listener, closes
// every connection, stops every peer goroutine, and discards any frames
// still queued (counting them out of Inflight so Drain cannot hang).
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	flushers := make([]func(), 0, len(n.ackFlush))
	for _, f := range n.ackFlush {
		flushers = append(flushers, f)
	}
	n.mu.Unlock()

	close(n.healthStop)
	<-n.healthDone
	n.ln.Close()
	// Graceful-teardown ack flush: tell every sender how far we got
	// before severing its connection, so delivered frames do not linger
	// in remote resend queues (blocking the peer's Drain) or come back
	// as duplicates after a reconnect.
	for _, flush := range flushers {
		flush()
	}
	dropped := 0
	for _, p := range peers {
		p.mu.Lock()
		p.closed = true
		dropped += len(p.queue)
		p.releaseLocked(p.queue)
		p.queue = nil
		p.queueBytes = 0
		p.cursor = 0
		p.oob = [nChan][][]byte{}
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	for _, c := range conns {
		c.Close()
	}
	n.retire(dropped)
	n.event("wire: node %d closed (%d undelivered frames dropped)", n.id, dropped)
}

// DropConnections forcibly closes every live connection (inbound and
// outbound) without closing the node. Peers reconnect with backoff and
// resend unacknowledged frames; no message is lost or reordered. Tests
// and chaos drills use it to exercise the reconnect path.
func (n *Node) DropConnections() int {
	n.mu.Lock()
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	n.event("wire: node %d force-dropped %d connections", n.id, len(conns))
	return len(conns)
}

// Stats implements transport.Transport: messages delivered to local
// handlers by kind (the same semantics as netsim).
func (n *Node) Stats() transport.Stats { return n.counts.Snapshot() }

// WireStats returns the transport-level counters plus a point-in-time
// gauge of the outbound queues.
func (n *Node) WireStats() WireStats {
	s := WireStats{
		BytesIn: n.bytesIn.Load(), BytesOut: n.bytesOut.Load(),
		FramesIn: n.framesIn.Load(), FramesOut: n.framesOut.Load(),
		Resends: n.resends.Load(), Reconnects: n.reconnects.Load(),
		AcksSent: n.acksSent.Load(), AcksRecv: n.acksRecv.Load(),
		EncodeErrors: n.encodeErr.Load(), DecodeErrors: n.decodeErr.Load(),
		Duplicates: n.duplicates.Load(), CRCErrors: n.crcErrors.Load(),
		DialFailures: n.dialFails.Load(),
		QueueFull:    n.queueFull.Load(), Flushes: n.flushes.Load(),
		ProbesSent: n.probesSent.Load(), ProbesRecv: n.probesRecv.Load(),
		DeadDrops: n.deadDrops.Load(), ModeRejects: n.modeRejects.Load(),
	}
	for ch := range s.Channels {
		s.Channels[ch] = ChannelStats{Sent: n.oobSent[ch].Load(), Recv: n.oobRecv[ch].Load(), Drops: n.oobDrops[ch].Load()}
	}
	for _, h := range n.healthSnapshot() {
		switch PeerState(h.state.Load()) {
		case PeerSuspect:
			s.PeersSuspect++
		case PeerDead:
			s.PeersDead++
		}
	}
	if n.dur != nil {
		s.Durable = true
		s.WAL = n.dur.Stats()
	}
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		s.QueuedFrames += uint64(len(p.queue))
		s.QueuedBytes += uint64(p.queueBytes)
		p.mu.Unlock()
	}
	return s
}

// track adds c to the live-connection set; it reports false (and closes
// c) if the node is already closed.
func (n *Node) track(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		c.Close()
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrack(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
	c.Close()
}

// deliver hands an inbound message to its registered handler.
func (n *Node) deliver(m *msg.Message) {
	n.mu.Lock()
	h := n.handlers[m.To]
	n.mu.Unlock()
	if h == nil {
		n.counts.Observe(0)
		n.consumedDeadLetter(m)
		return
	}
	n.counts.Observe(m.Kind)
	h(m)
}

// Redeliver re-injects a recovered-but-unconsumed inbound message into
// the local delivery path. Called once per pending message at boot, after
// the engine has registered its handlers. The message must carry its
// original SrcNode/SrcSeq so that a drop (dead letter, denied tag) retires
// it in the WAL instead of leaving it pending across every restart.
func (n *Node) Redeliver(m *msg.Message) { n.deliver(m) }

// consumedDeadLetter marks a remote-origin message as consumed in the WAL
// when it dead-letters, so recovery stops re-delivering it.
func (n *Node) consumedDeadLetter(m *msg.Message) {
	if n.dur != nil && m.SrcSeq != 0 {
		n.dur.Consumed(m.SrcNode, m.SrcSeq)
	}
}

// ---------------------------------------------------------------------------
// Framing

// writeFrame writes one length-prefixed frame: uint32 length, type byte,
// payload, CRC32C trailer over type+payload. It counts bytes out.
func (n *Node) writeFrame(w io.Writer, ftype byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)+crcLen))
	hdr[4] = ftype
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	crc := crc32.Update(0, crcTable, hdr[4:5])
	crc = crc32.Update(crc, crcTable, payload)
	var trailer [crcLen]byte
	binary.BigEndian.PutUint32(trailer[:], crc)
	if _, err := w.Write(trailer[:]); err != nil {
		return err
	}
	n.bytesOut.Add(uint64(5 + len(payload) + crcLen))
	return nil
}

// writeMsgFrame writes one msg frame — length prefix, type byte, seq
// varint, encoded message, CRC32C trailer — with no intermediate
// allocation. The writer is the pump's bufio.Writer, so consecutive
// frames coalesce into one flush.
func (n *Node) writeMsgFrame(w io.Writer, seq uint64, data []byte) error {
	var hdr [5 + binary.MaxVarintLen64]byte
	sn := binary.PutUvarint(hdr[5:], seq)
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+sn+len(data)+crcLen))
	hdr[4] = frameMsg
	if _, err := w.Write(hdr[:5+sn]); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	crc := crc32.Update(0, crcTable, hdr[4:5+sn])
	crc = crc32.Update(crc, crcTable, data)
	var trailer [crcLen]byte
	binary.BigEndian.PutUint32(trailer[:], crc)
	if _, err := w.Write(trailer[:]); err != nil {
		return err
	}
	n.bytesOut.Add(uint64(5 + sn + len(data) + crcLen))
	return nil
}

// readFrame reads one frame into *scratch (growing it as needed — the
// returned payload aliases it), enforcing the size cap and counting
// bytes. Each reader owns its scratch buffer; reusing it across calls
// makes the steady-state receive path allocation-free. The payload is
// only valid until the next readFrame on the same scratch, and nothing
// DecodeMessage returns aliases it.
func (n *Node) readFrame(r io.Reader, scratch *[]byte) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size < 1+crcLen || size > maxFrame {
		return 0, nil, fmt.Errorf("wire: frame size %d out of range", size)
	}
	body := *scratch
	if uint32(cap(body)) < size {
		body = make([]byte, size)
		*scratch = body
	}
	body = body[:size]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	n.bytesIn.Add(uint64(4 + size))
	content := body[:size-crcLen]
	want := binary.BigEndian.Uint32(body[size-crcLen:])
	if got := crc32.Checksum(content, crcTable); got != want {
		n.crcErrors.Add(1)
		return 0, nil, fmt.Errorf("wire: frame crc mismatch (got %08x, want %08x)", got, want)
	}
	return content[0], content[1:], nil
}

func seqPayload(seq uint64) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64)
	return binary.AppendUvarint(buf, seq)
}

func parseSeq(b []byte) (uint64, error) {
	v, nn := binary.Uvarint(b)
	if nn <= 0 {
		return 0, errors.New("wire: bad seq varint")
	}
	return v, nil
}

// ---------------------------------------------------------------------------
// Accept side

func (n *Node) acceptLoop() {
	for {
		c, err := n.ln.Accept()
		if err != nil {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if closed {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			// Listener broke for good; nothing to accept anymore.
			n.event("wire: node %d accept failed: %v", n.id, err)
			return
		}
		if !n.track(c) {
			return
		}
		go n.serveConn(c)
	}
}

// serveConn is the receive loop for one inbound connection: handshake,
// then sequenced message frames, with acks written back on the same
// connection (from both the read loop and an idle-flush ticker; writes
// are serialized by a per-connection mutex).
func (n *Node) serveConn(c net.Conn) {
	defer n.untrack(c)
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(c, 64<<10)
	var scratch []byte // reused for every frame on this connection

	c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	ftype, body, err := n.readFrame(br, &scratch)
	if err != nil || ftype != frameHello || len(body) < 2 || body[0] != codecVersion {
		n.event("wire: node %d rejected connection from %s: bad hello (%v)", n.id, c.RemoteAddr(), err)
		return
	}
	from64, used := binary.Uvarint(body[1:])
	if used <= 0 || from64 >= MaxNodes {
		n.event("wire: node %d rejected connection from %s: bad node id", n.id, c.RemoteAddr())
		return
	}
	from := int(from64)
	// The hello may carry the peer's commit-watermark mode after the node
	// id (absent on peers that predate the field, which parse as
	// Unknown). A definite mismatch is refused here, with a clear error,
	// rather than letting mixed modes corrupt the commit protocol.
	peerMode := WatermarkUnknown
	if len(body) > 1+used {
		peerMode = WatermarkMode(body[1+used])
	}
	if n.wmMode != WatermarkUnknown && peerMode != WatermarkUnknown && peerMode != n.wmMode {
		n.modeRejects.Add(1)
		n.event("wire: node %d refused node %d: commit-watermark mode mismatch (ours %s, theirs %s) — all nodes must agree on --watermark",
			n.id, from, n.wmMode, peerMode)
		return
	}
	c.SetReadDeadline(time.Time{})

	h := n.healthOf(from)
	if PeerState(h.state.Load()) == PeerDead {
		// Dead is terminal: a peer this node has written off may not
		// re-enter the seq stream (its assumptions are already denied).
		n.event("wire: node %d rejected connection from dead node %d", n.id, from)
		return
	}
	n.heard(h)

	n.mu.Lock()
	in := n.inbound[from]
	if in == nil {
		in = &inbound{}
		n.inbound[from] = in
	}
	n.inConns[c] = from
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.inConns, c)
		n.mu.Unlock()
	}()

	// Tell the sender where to resume. A write mutex serializes the
	// helloAck and all later acks against the idle-flush goroutine.
	var wmu sync.Mutex
	in.mu.Lock()
	resume := in.delivered
	in.mu.Unlock()
	// acked is the highest seq acked on THIS connection (guarded by
	// in.mu). It is not the sender's state: two connections from one
	// sender can overlap, and an ack the dying one wrote into its dead
	// socket tells the sender nothing — the replacement must still ack
	// the duplicates it discards, starting from its own handshake.
	acked := resume
	wmu.Lock()
	err = n.writeFrame(c, frameHelloAck, append(seqPayload(resume), byte(n.wmMode)))
	wmu.Unlock()
	if err != nil {
		return
	}
	n.event("wire: node %d accepted node %d from %s (resume seq=%d)", n.id, from, c.RemoteAddr(), resume)

	// force makes sendAck write even when nothing new was delivered: a
	// ping frame must produce an observable response, and a duplicate
	// cumulative ack is harmless to the sender's prune.
	sendAck := func(force bool) {
		in.mu.Lock()
		seq := in.delivered
		stale := seq == acked
		in.mu.Unlock()
		if stale && !force {
			return
		}
		if !stale {
			// An ack licenses the sender to forget these frames, so their
			// Delivered records must hit stable storage first. The barrier is
			// taken outside in.mu; the ack covers exactly the watermark read
			// before it (a later frame's record may be unsynced).
			if n.dur != nil {
				if err := n.dur.SyncForAck(); err != nil {
					n.event("wire: node %d ack withheld from node %d: wal sync: %v", n.id, from, err)
					return
				}
			}
			in.mu.Lock()
			if seq > acked {
				acked = seq
			} else if !force {
				in.mu.Unlock()
				return
			}
			seq = acked
			in.mu.Unlock()
		}
		wmu.Lock()
		werr := n.writeFrame(c, frameAck, seqPayload(seq))
		wmu.Unlock()
		if werr == nil {
			n.acksSent.Add(1)
		}
	}

	// reply writes an out-of-band channel's answer (see Channel.Reply).
	reply := func(ch int, payload []byte) {
		wmu.Lock()
		werr := n.writeFrame(c, byte(frameGossip+ch), payload)
		wmu.Unlock()
		if werr == nil {
			n.oobSent[ch].Add(1)
		}
	}

	// Teardown flush: whatever was delivered but not yet acked when the
	// connection dies (or the node shuts down) gets one best-effort
	// final ack, so a graceful close does not strand a tail of frames in
	// the sender's resend queue to come back as duplicates after the
	// next handshake. Registering the flusher lets Node.Close run it
	// while the connection is still writable.
	defer sendAck(false)
	n.mu.Lock()
	n.ackFlush[c] = func() { sendAck(false) }
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.ackFlush, c)
		n.mu.Unlock()
	}()

	// Idle flush: frames that arrive and then go quiet still get acked
	// promptly, so the sender's resend queue (and Drain) empties.
	done := make(chan struct{})
	defer close(done)
	go func() {
		t := time.NewTicker(ackFlushInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				sendAck(false)
			}
		}
	}()

	for {
		ftype, body, err := n.readFrame(br, &scratch)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				n.event("wire: node %d lost connection from node %d: %v", n.id, from, err)
			}
			return
		}
		n.heard(h)
		if ftype == framePing {
			n.probesRecv.Add(1)
			sendAck(true)
			continue
		}
		if ch, ok := chanOf(ftype); ok {
			n.receive(ch, from, body, reply)
			continue
		}
		if ftype != frameMsg {
			n.event("wire: node %d got unexpected frame type %d from node %d", n.id, ftype, from)
			return
		}
		seq, nn := binary.Uvarint(body)
		if nn <= 0 {
			n.decodeErr.Add(1)
			return
		}
		n.framesIn.Add(1)

		in.mu.Lock()
		switch {
		case seq <= in.delivered:
			// Duplicate of an already-delivered frame (resent after a
			// reconnect that raced an ack). Discard.
			in.mu.Unlock()
			n.duplicates.Add(1)
			continue
		case seq != in.delivered+1:
			// A gap violates the contiguous-resend contract; drop the
			// connection so the sender re-handshakes from our ack.
			in.mu.Unlock()
			n.event("wire: node %d seq gap from node %d: got %d after %d", n.id, from, seq, in.delivered)
			return
		}
		if n.dur != nil {
			// Log the frame before the watermark advances: once delivered
			// moves, a resend will be deduplicated, so the only durable
			// copy is ours. An append failure refuses the frame and drops
			// the connection; the sender keeps it queued and retries.
			if err := n.dur.Delivered(from, seq, body[nn:]); err != nil {
				in.mu.Unlock()
				n.event("wire: node %d refused frame seq=%d from node %d: wal: %v", n.id, seq, from, err)
				return
			}
		}
		in.delivered = seq
		pending := in.delivered - acked

		// Decode and deliver under in.mu. Two connections from the same
		// sender can briefly overlap — the dying one draining its buffered
		// tail while its replacement replays from the handshake snapshot —
		// and the dedup bar alone only guarantees exactly-once, not order:
		// delivery outside the lock would let the two goroutines hand
		// consecutive frames to the handler inverted.
		m, derr := DecodeMessage(body[nn:])
		if derr != nil {
			// The frame is consumed (and will be acked) either way; a
			// payload this node cannot decode would never become decodable
			// by replaying it.
			n.decodeErr.Add(1)
			n.event("wire: node %d undecodable frame seq=%d from node %d: %v", n.id, seq, from, derr)
			if n.dur != nil {
				n.dur.Consumed(from, seq)
			}
		} else {
			m.SrcNode, m.SrcSeq = from, seq
			n.deliver(m)
		}
		in.mu.Unlock()
		if pending >= ackEvery {
			sendAck(false)
		}
	}
}

// receive hands one inbound out-of-band payload on channel ch to its
// hook. body aliases the reader's scratch buffer, so the hook gets a
// copy. serveConn passes reply, so the acceptor answers through
// Channel.Reply; readAcks passes nil, since the dialer never answers
// an answer.
func (n *Node) receive(ch, from int, body []byte, reply func(ch int, payload []byte)) {
	n.oobRecv[ch].Add(1)
	c := &n.chans[ch]
	if c.OnPayload != nil {
		c.OnPayload(from, append([]byte(nil), body...))
	}
	if reply != nil && c.Reply != nil {
		if payload := c.Reply(from); len(payload) > 0 {
			reply(ch, payload)
		}
	}
}

// ---------------------------------------------------------------------------
// Dial side

// run is the peer's connection-owner goroutine: it dials (waiting for an
// address if necessary), handshakes, prunes the resend queue to the
// receiver's resume point, replays the rest, and then pumps new frames
// until the connection dies — forever, with exponential backoff and
// jitter between attempts.
func (p *peer) run() {
	rng := rand.New(rand.NewSource(int64(p.id)<<16 ^ time.Now().UnixNano()))
	backoff := backoffInitial
	for {
		p.mu.Lock()
		for p.addr == "" && !p.gone() {
			p.cond.Wait()
		}
		if p.gone() {
			p.mu.Unlock()
			return
		}
		addr := p.addr
		p.backoffCur = backoff
		p.mu.Unlock()

		conn, err := p.dial(addr)
		if err != nil {
			p.n.dialFails.Add(1)
			p.health.dialFails.Add(1)
			p.n.event("wire: node %d dial node %d (%s) failed: %v (retry in %v)", p.n.id, p.id, addr, err, backoff)
			if p.sleep(jitter(rng, backoff)) {
				return
			}
			backoff = nextBackoff(backoff)
			continue
		}
		backoff = backoffInitial
		p.mu.Lock()
		p.backoffCur = backoff
		p.mu.Unlock()
		p.pump(conn)
		p.n.untrack(conn)
		p.mu.Lock()
		stop := p.gone()
		p.mu.Unlock()
		if stop {
			return
		}
	}
}

// nextBackoff is the reconnect schedule: doubling from backoffInitial,
// capped at backoffMax. (The actual sleep is jittered ±50%; see jitter.)
func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > backoffMax {
		d = backoffMax
	}
	return d
}

// sleep waits d, returning true if the peer closed or died meanwhile.
func (p *peer) sleep(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		p.mu.Lock()
		stop := p.gone()
		p.mu.Unlock()
		if stop {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		if remain > 5*time.Millisecond {
			remain = 5 * time.Millisecond
		}
		time.Sleep(remain)
	}
}

func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	// ±50% jitter decorrelates reconnect storms across peers.
	half := int64(d) / 2
	return time.Duration(half + rng.Int63n(int64(d)))
}

// dial establishes and handshakes one connection.
func (p *peer) dial(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if !p.n.track(conn) {
		return nil, net.ErrClosed
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	hello := append([]byte{codecVersion}, seqPayload(uint64(p.n.id))...)
	hello = append(hello, byte(p.n.wmMode)) // commit-watermark mode (see NodeConfig.Watermark)
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := p.n.writeFrame(conn, frameHello, hello); err != nil {
		p.n.untrack(conn)
		return nil, err
	}
	var scratch []byte
	ftype, body, err := p.n.readFrame(conn, &scratch)
	if err != nil || ftype != frameHelloAck {
		p.n.untrack(conn)
		return nil, fmt.Errorf("wire: bad helloAck (type=%d err=%v)", ftype, err)
	}
	acked, err := parseSeq(body)
	if err != nil {
		p.n.untrack(conn)
		return nil, err
	}
	// The helloAck may carry the acceptor's commit-watermark mode after
	// the resume seq (absent on peers that predate the field). Refuse a
	// definite mismatch from this side too: the acceptor cannot see our
	// mode if it predates the hello field, and a refused dial names the
	// misconfiguration instead of half-connecting.
	if _, used := binary.Uvarint(body); used > 0 && len(body) > used {
		peerMode := WatermarkMode(body[used])
		if p.n.wmMode != WatermarkUnknown && peerMode != WatermarkUnknown && peerMode != p.n.wmMode {
			p.n.modeRejects.Add(1)
			p.n.untrack(conn)
			p.n.event("wire: node %d refused node %d: commit-watermark mode mismatch (ours %s, theirs %s) — all nodes must agree on --watermark",
				p.n.id, p.id, p.n.wmMode, peerMode)
			return nil, fmt.Errorf("wire: watermark mode mismatch with node %d (ours %s, theirs %s)", p.id, p.n.wmMode, peerMode)
		}
	}
	conn.SetDeadline(time.Time{})
	p.n.heard(p.health) // a completed handshake is evidence of life

	p.mu.Lock()
	if p.gone() {
		p.mu.Unlock()
		p.n.untrack(conn)
		return nil, net.ErrClosed
	}
	retired := p.pruneLocked(acked)
	resend := len(p.queue)
	p.cursor = 0
	p.conn = conn
	p.gen++
	gen := p.gen
	p.mu.Unlock()

	if retired > 0 && p.n.dur != nil {
		p.n.dur.AckAdvanced(p.id, acked)
	}
	p.n.retire(retired)
	p.n.reconnects.Add(1)
	if resend > 0 {
		p.n.resends.Add(uint64(resend))
	}
	p.n.event("wire: node %d connected to node %d at %s (acked=%d resending=%d)", p.n.id, p.id, addr, acked, resend)

	go p.readAcks(conn, gen)
	return conn, nil
}

// pruneLocked drops acknowledged frames from the head of the queue,
// recycles their encode buffers, and returns how many were retired.
// Callers hold p.mu.
func (p *peer) pruneLocked(acked uint64) int {
	k := 0
	for k < len(p.queue) && p.queue[k].seq <= acked {
		p.queueBytes -= len(p.queue[k].buf.b)
		k++
	}
	if k == 0 {
		return 0
	}
	p.releaseLocked(p.queue[:k])
	p.queue = p.queue[k:]
	p.cursor -= k
	if p.cursor < 0 {
		p.cursor = 0
	}
	if p.full {
		// Space freed: the next overflow is a new episode (new event).
		p.full = false
	}
	return k
}

// readAcks consumes ack frames on a dialed connection, pruning the
// resend queue, and hands the acceptor's out-of-band replies to their
// channels. When the connection dies it detaches it so the pump
// reconnects.
func (p *peer) readAcks(conn net.Conn, gen uint64) {
	br := bufio.NewReader(conn)
	var scratch []byte // ack frames are tiny; one buffer serves them all
loop:
	for {
		ftype, body, err := p.n.readFrame(br, &scratch)
		if err != nil {
			break
		}
		switch ftype {
		case frameAck:
			acked, err := parseSeq(body)
			if err != nil {
				break loop
			}
			p.n.acksRecv.Add(1)
			p.n.heard(p.health)
			p.mu.Lock()
			retired := p.pruneLocked(acked)
			p.mu.Unlock()
			if retired > 0 && p.n.dur != nil {
				p.n.dur.AckAdvanced(p.id, acked)
			}
			p.n.retire(retired)
		default:
			ch, ok := chanOf(ftype)
			if !ok {
				break loop
			}
			p.n.heard(p.health)
			p.n.receive(ch, p.id, body, nil)
		}
	}
	conn.Close()
	p.mu.Lock()
	if p.gen == gen && p.conn == conn {
		p.conn = nil
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// pump writes queued frames to conn until it fails or is replaced. It
// coalesces: everything queued at wake-up — plus anything that arrives
// while the batch is being written — goes into one buffered write,
// flushed with a single syscall.
func (p *peer) pump(conn net.Conn) {
	bw := bufio.NewWriterSize(conn, 64<<10)
	var batch []outFrame // reused round to round; entries are pinned while written
	for {
		p.mu.Lock()
		p.pinLo, p.pinHi = 0, 0
		for p.cursor >= len(p.queue) && !p.oobPending() && !p.probe && !p.gone() && p.conn == conn {
			p.cond.Wait()
		}
		if p.gone() || p.conn != conn {
			p.mu.Unlock()
			return
		}
		if p.probe {
			// Pending frames — out-of-band ones included — are themselves
			// a heartbeat; a ping frame is only worth a syscall when the
			// queue has nothing to say.
			probeOnly := p.cursor >= len(p.queue) && !p.oobPending()
			p.probe = false
			if probeOnly {
				p.mu.Unlock()
				if err := p.n.writeFrame(bw, framePing, nil); err != nil {
					p.detach(conn)
					return
				}
				if err := bw.Flush(); err != nil {
					p.detach(conn)
					return
				}
				p.n.probesSent.Add(1)
				continue
			}
		}
		// Copy the pending window and pin its seq range: acks may retire
		// these frames while we write outside the lock, and a retired
		// buffer must not be recycled mid-write (see releaseLocked).
		oob := p.oob
		p.oob = [nChan][][]byte{}
		batch = append(batch[:0], p.queue[p.cursor:]...)
		p.cursor = len(p.queue)
		if len(batch) > 0 {
			p.pinLo, p.pinHi = batch[0].seq, batch[len(batch)-1].seq
		}
		p.mu.Unlock()

		// Out-of-band frames ride the same buffered write as the batch
		// but skip its durability barrier (see Channel).
		for ch := range oob {
			for _, b := range oob[ch] {
				if err := p.n.writeFrame(bw, byte(frameGossip+ch), b); err != nil {
					p.detach(conn)
					return
				}
				p.n.oobSent[ch].Add(1)
			}
		}
		if len(batch) > 0 && p.n.dur != nil {
			// A written frame's seq is burned: make its FrameQueued record
			// durable before it can reach the network, or a restart could
			// reuse the seq for different content and the receiver's dedup
			// would drop it.
			if err := p.n.dur.SyncForWrite(); err != nil {
				p.detach(conn)
				return
			}
		}

		for _, f := range batch {
			if err := p.n.writeMsgFrame(bw, f.seq, f.buf.b); err != nil {
				p.detach(conn)
				return
			}
			p.n.framesOut.Add(1)
		}
		if p.moreQueued(conn) {
			continue // keep filling the buffer instead of flushing early
		}
		if err := bw.Flush(); err != nil {
			p.detach(conn)
			return
		}
		p.n.flushes.Add(1)
	}
}

// oobPending reports whether any out-of-band payload waits. Callers
// hold p.mu.
func (p *peer) oobPending() bool {
	for ch := range p.oob {
		if len(p.oob[ch]) > 0 {
			return true
		}
	}
	return false
}

// moreQueued reports whether unwritten frames are waiting and conn is
// still current.
func (p *peer) moreQueued(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cursor < len(p.queue) && !p.closed && p.conn == conn
}

// detach marks conn dead so run() reconnects; unwritten and unacked
// frames stay queued for the next connection. Only the pump calls it,
// so it also releases the pump's pin.
func (p *peer) detach(conn net.Conn) {
	conn.Close()
	p.mu.Lock()
	p.pinLo, p.pinHi = 0, 0
	if p.conn == conn {
		p.conn = nil
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}
