package wire

import (
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
)

// PeerState is one peer's position in the failure detector's
// Alive → Suspect → Dead progression. Alive and Suspect move in both
// directions (any frame or ack from the peer clears a suspicion); Dead
// is sticky — the detector models permanent crash failure, and a node
// declared dead is never dialed or accepted again by this node.
type PeerState int32

const (
	// PeerAlive: traffic (frames, acks, or probe responses) has been
	// heard within SuspectAfter.
	PeerAlive PeerState = iota
	// PeerSuspect: silent for at least SuspectAfter. Probes are in
	// flight; any response moves the peer back to Alive.
	PeerSuspect
	// PeerDead: silent for at least DeadAfter, or DeclarePeerDead. The
	// resend queue is dropped, the dialer stopped, OnPeerState fired.
	// Terminal, and the one record of the death (see peer.gone).
	PeerDead
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// HealthConfig parameterizes the per-peer failure detector. The zero
// value disables it: health is still tracked passively (PeerHealth
// reports last-heard times and dial failures) but no peer is ever
// suspected or declared dead.
type HealthConfig struct {
	// SuspectAfter is the silence that moves a peer Alive → Suspect.
	// Zero (or a value above DeadAfter) defaults to DeadAfter/4.
	SuspectAfter time.Duration
	// DeadAfter is the silence that declares a peer Dead. Zero disables
	// the detector entirely. Must comfortably exceed the longest healthy
	// silence the deployment can produce (reconnect backoff, partitions
	// expected to heal), or a slow network becomes a death sentence.
	DeadAfter time.Duration
	// ProbeEvery bounds how often an idle or suspected link is probed
	// with a ping frame (the acceptor answers with a forced ack, so a
	// probe round-trip refreshes liveness in both directions). Zero
	// defaults to SuspectAfter/2.
	ProbeEvery time.Duration
	// OnPeerState, when non-nil, is called (on its own goroutine) on
	// every detector transition — Alive→Suspect, Suspect→Alive, and
	// →Dead, the one death callback: once per peer, whether the
	// detector timed out or DeclarePeerDead was called.
	OnPeerState func(node int, state PeerState)
	// OnDeadFrame, when non-nil, receives every sequenced message frame
	// the node abandons because its peer is dead: the unacknowledged
	// resend queue dropped at declaration, plus any later Send toward
	// the corpse. The frame is lost at the wire either way — the hook
	// exists so the engine can park it (Engine.Requeue): an AID
	// adjudication until the ring reassigns the shard, anything else
	// until an adopter's transplant mapping names a live destination.
	// Called synchronously from the declaring goroutine and from Send;
	// keep it non-blocking.
	OnDeadFrame func(to int, m *msg.Message)
}

func (h HealthConfig) enabled() bool { return h.DeadAfter > 0 }

func (h HealthConfig) norm() HealthConfig {
	if !h.enabled() {
		return h
	}
	if h.SuspectAfter <= 0 || h.SuspectAfter > h.DeadAfter {
		h.SuspectAfter = h.DeadAfter / 4
	}
	if h.SuspectAfter <= 0 {
		h.SuspectAfter = time.Millisecond
	}
	if h.ProbeEvery <= 0 {
		h.ProbeEvery = h.SuspectAfter / 2
	}
	if h.ProbeEvery < time.Millisecond {
		h.ProbeEvery = time.Millisecond
	}
	return h
}

// peerHealth is the detector's per-peer record. It exists for every
// peer the node has sent to or heard from, detector enabled or not.
type peerHealth struct {
	id        int
	firstSeen int64 // UnixNano at creation; the silence baseline before any traffic
	lastHeard atomic.Int64
	lastProbe atomic.Int64
	state     atomic.Int32 // PeerState
	dialFails atomic.Uint64
}

// PeerHealth is one peer's health snapshot (see Node.PeerHealth).
type PeerHealth struct {
	Node         int
	State        PeerState
	LastHeard    time.Time     // zero if nothing was ever heard
	SinceHeard   time.Duration // silence so far (since first sight if nothing heard)
	DialFailures uint64        // failed dials toward this peer
	QueuedFrames int           // unacked frames queued toward this peer
}

// String implements fmt.Stringer.
func (p PeerHealth) String() string {
	return fmt.Sprintf("node=%d state=%s silent=%v dialfail=%d queued=%d",
		p.Node, p.State, p.SinceHeard.Round(time.Millisecond), p.DialFailures, p.QueuedFrames)
}

// healthOf returns (creating if needed) the health record for node id.
func (n *Node) healthOf(id int) *peerHealth {
	n.healthMu.Lock()
	defer n.healthMu.Unlock()
	h := n.peerHealth[id]
	if h == nil {
		h = &peerHealth{id: id, firstSeen: time.Now().UnixNano()}
		n.peerHealth[id] = h
	}
	return h
}

// heard records evidence of life from a peer: any inbound frame on a
// connection it dialed, or any ack on a connection we dialed. Clears a
// suspicion but never resurrects a dead peer — Dead is terminal.
func (n *Node) heard(h *peerHealth) {
	h.lastHeard.Store(time.Now().UnixNano())
	if h.state.CompareAndSwap(int32(PeerSuspect), int32(PeerAlive)) {
		n.event("wire: node %d heard from suspected node %d: alive again", n.id, h.id)
		n.notifyState(h.id, PeerAlive)
	}
}

// notifyState fires the OnPeerState callback on its own goroutine (the
// caller may hold locks the callback wants).
func (n *Node) notifyState(id int, state PeerState) {
	if cb := n.health.OnPeerState; cb != nil {
		go cb(id, state)
	}
}

// healthSnapshot copies the health map for lock-free iteration.
func (n *Node) healthSnapshot() []*peerHealth {
	n.healthMu.Lock()
	defer n.healthMu.Unlock()
	out := make([]*peerHealth, 0, len(n.peerHealth))
	for _, h := range n.peerHealth {
		out = append(out, h)
	}
	return out
}

// monitor is the failure-detector goroutine: it sweeps every peer's
// last-heard time, probing idle links, suspecting silent ones, and
// declaring dead those silent past DeadAfter. Started by NewNode when
// the detector is enabled; stopped by Close.
func (n *Node) monitor() {
	defer close(n.healthDone)
	tick := n.health.SuspectAfter / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 500*time.Millisecond {
		tick = 500 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-n.healthStop:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		for _, h := range n.healthSnapshot() {
			if PeerState(h.state.Load()) == PeerDead {
				continue
			}
			last := h.lastHeard.Load()
			if last == 0 {
				last = h.firstSeen
			}
			silence := time.Duration(now - last)
			switch {
			case silence >= n.health.DeadAfter:
				n.declareDead(h, silence)
			case silence >= n.health.SuspectAfter:
				if h.state.CompareAndSwap(int32(PeerAlive), int32(PeerSuspect)) {
					n.event("wire: node %d suspects node %d (silent %v)",
						n.id, h.id, silence.Round(time.Millisecond))
					n.notifyState(h.id, PeerSuspect)
				}
				n.maybeProbe(h, now)
			case silence >= n.health.ProbeEvery:
				// Idle but healthy: probe so the forced-ack round trip
				// keeps a quiet link visibly alive.
				n.maybeProbe(h, now)
			}
		}
	}
}

// maybeProbe asks the peer's pump to write one ping frame, rate-limited
// to one per ProbeEvery. A peer with no live outbound connection is not
// probed — its dialer is already producing dial-failure evidence.
func (n *Node) maybeProbe(h *peerHealth, now int64) {
	last := h.lastProbe.Load()
	if now-last < int64(n.health.ProbeEvery) {
		return
	}
	if !h.lastProbe.CompareAndSwap(last, now) {
		return
	}
	n.mu.Lock()
	p := n.peers[h.id]
	n.mu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.conn != nil && !p.gone() {
		p.probe = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// declareDead moves a peer to Dead (idempotent): its resend queue is
// dropped and retired, its connections are closed, its dialer stops,
// and OnPeerState(PeerDead) fires. The drop is announced as a
// trace.Fault event — a declared death is the failure model acting, and
// chaos runs assert on exactly these events.
func (n *Node) declareDead(h *peerHealth, silence time.Duration) {
	if PeerState(h.state.Swap(int32(PeerDead))) == PeerDead {
		return
	}
	n.mu.Lock()
	p := n.peers[h.id]
	var inbound []net.Conn
	for c, id := range n.inConns {
		if id == h.id {
			inbound = append(inbound, c)
		}
	}
	n.mu.Unlock()

	dropped := 0
	var abandoned []*msg.Message
	if p != nil {
		p.mu.Lock()
		dropped = len(p.queue)
		if n.health.OnDeadFrame != nil {
			// Decode before releaseLocked recycles the buffers: these are
			// the frames the corpse never acknowledged, and the routing
			// layer may want them back.
			for _, f := range p.queue {
				if m, err := DecodeMessage(f.buf.b); err == nil {
					abandoned = append(abandoned, m)
				}
			}
		}
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
	for _, c := range inbound {
		c.Close()
	}
	n.deadDrops.Add(uint64(dropped))
	n.retire(dropped)
	if cb := n.health.OnDeadFrame; cb != nil {
		for _, m := range abandoned {
			cb(h.id, m)
		}
	}
	n.tracer.Emit(trace.Event{Kind: trace.Fault, Detail: fmt.Sprintf(
		"wire: node %d declared node %d dead after %v silence (%d queued frames dropped)",
		n.id, h.id, silence.Round(time.Millisecond), dropped)})
	n.notifyState(h.id, PeerDead)
}

// DeclarePeerDead declares a peer dead by fiat — the entry point for
// second-hand evidence: when the membership layer learns through gossip
// that the cluster killed a node, the local wire state must converge on
// that verdict (stop dialing it, drop its queue, refuse its
// connections) even if this node's own detector never timed out.
// Idempotent; fires the same callbacks as a locally detected death.
func (n *Node) DeclarePeerDead(id int) {
	if id == n.id {
		return
	}
	n.declareDead(n.healthOf(id), 0)
}

// PeerHealth returns a health snapshot for every peer this node has
// sent to or heard from, sorted by node ID. Available whether or not
// the detector is enabled.
func (n *Node) PeerHealth() []PeerHealth {
	hs := n.healthSnapshot()
	out := make([]PeerHealth, 0, len(hs))
	for _, h := range hs {
		out = append(out, n.peerHealthSnap(h))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// HealthOf returns one peer's health snapshot. An unknown peer reports
// the zero value (Alive, nothing heard).
func (n *Node) HealthOf(id int) PeerHealth {
	n.healthMu.Lock()
	h := n.peerHealth[id]
	n.healthMu.Unlock()
	if h == nil {
		return PeerHealth{Node: id}
	}
	return n.peerHealthSnap(h)
}

func (n *Node) peerHealthSnap(h *peerHealth) PeerHealth {
	ph := PeerHealth{
		Node:         h.id,
		State:        PeerState(h.state.Load()),
		DialFailures: h.dialFails.Load(),
	}
	last := h.lastHeard.Load()
	if last != 0 {
		ph.LastHeard = time.Unix(0, last)
		ph.SinceHeard = time.Since(ph.LastHeard)
	} else {
		ph.SinceHeard = time.Since(time.Unix(0, h.firstSeen))
	}
	n.mu.Lock()
	p := n.peers[h.id]
	n.mu.Unlock()
	if p != nil {
		p.mu.Lock()
		ph.QueuedFrames = len(p.queue)
		p.mu.Unlock()
	}
	return ph
}
