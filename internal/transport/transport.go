// Package transport defines the interface between the HOPE runtime and
// whatever carries its messages. The engine (internal/core) and the
// virtual process machine (internal/vpm) speak only to this interface;
// internal/netsim implements it with an in-process simulated network and
// internal/wire implements it with real TCP connections between OS
// processes.
//
// Every implementation must provide the two properties HOPE's Algorithm 2
// assumes of the PVM network layer (paper §5, DESIGN.md §2):
//
//   - reliable delivery: an accepted message is eventually delivered to
//     the destination's handler (or counted as a dead letter if no
//     handler is registered);
//   - per-pair FIFO: messages from one sender PID to one receiver PID are
//     delivered in send order.
//
// Nothing is assumed about ordering across pairs, and delivery may happen
// on any goroutine — handlers must be quick and non-blocking (typically a
// mailbox enqueue).
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
)

// Handler consumes a delivered message. Handlers may be invoked from the
// sender's goroutine (synchronous implementations), a timer goroutine
// (simulated latency), or a socket read loop (wire transport).
type Handler func(*msg.Message)

// Transport routes messages to registered per-PID handlers.
type Transport interface {
	// Register installs the delivery handler for pid, replacing any
	// previous handler.
	Register(pid ids.PID, h Handler)
	// Unregister removes pid's handler; subsequent deliveries to pid
	// become dead letters (counted, dropped).
	Unregister(pid ids.PID)
	// Send enqueues m for asynchronous delivery. Send never blocks on the
	// receiver; sends on a closed transport are dropped.
	Send(m *msg.Message)
	// Inflight returns the number of accepted-but-undelivered messages
	// this transport instance knows about. For a distributed transport
	// this covers the local side only (queued and unacknowledged sends);
	// messages still inside a remote peer are invisible.
	Inflight() int
	// Drain blocks until Inflight reaches zero.
	Drain()
	// Close stops accepting new sends and releases transport resources.
	Close()
	// Stats returns a snapshot of cumulative delivery counters.
	Stats() Stats
}

// Default per-peer outbound queue bounds, applied when a QueueLimits
// field is zero. They are deliberately generous: the cap exists to keep
// a node's memory finite while a peer is unreachable, not to throttle a
// healthy link.
const (
	DefaultMaxQueueFrames = 1 << 16  // 65536 queued frames per peer
	DefaultMaxQueueBytes  = 64 << 20 // 64 MiB of encoded payload per peer
)

// QueueLimits bounds a transport's per-peer outbound (resend) queue.
// A zero field means the package default; a negative field means
// unlimited. When a send would exceed either bound the transport drops
// the new message fail-fast (counted, traced) rather than blocking the
// caller or growing without bound — Send stays wait-free no matter what
// the remote end does.
type QueueLimits struct {
	MaxFrames int // queued-but-unacknowledged frames per peer
	MaxBytes  int // encoded bytes across those frames
}

// Norm resolves zero fields to the package defaults.
func (q QueueLimits) Norm() QueueLimits {
	if q.MaxFrames == 0 {
		q.MaxFrames = DefaultMaxQueueFrames
	}
	if q.MaxBytes == 0 {
		q.MaxBytes = DefaultMaxQueueBytes
	}
	return q
}

// Allows reports whether a queue already normalized by Norm may grow to
// frames frames and bytes bytes.
func (q QueueLimits) Allows(frames, bytes int) bool {
	if q.MaxFrames > 0 && frames > q.MaxFrames {
		return false
	}
	if q.MaxBytes > 0 && bytes > q.MaxBytes {
		return false
	}
	return true
}

// Stats holds cumulative delivered-message counts by kind.
type Stats struct {
	Guess    uint64
	Affirm   uint64
	Deny     uint64
	Replace  uint64
	Rollback uint64
	Retract  uint64
	Data     uint64
	CutProbe uint64 // cycle-cut confirmations (DESIGN.md §4.9)
	CutAck   uint64
	Revive   uint64
	Probe    uint64 // engine-internal GC probes
	Nack     uint64 // routed adjudications refused by a non-owner
	Batch    uint64 // coalesced routed adjudications (the envelopes)
	Dead     uint64 // delivered to an unregistered PID
}

// Total returns the number of delivered protocol messages: every kind
// but dead letters, GC probes, and the routing layer's Nack and Batch
// envelopes.
func (s Stats) Total() uint64 {
	return s.Guess + s.Affirm + s.Deny + s.Replace + s.Rollback + s.Retract + s.Data +
		s.CutProbe + s.CutAck + s.Revive
}

// Control returns the number of HOPE bookkeeping messages (every
// protocol message except Data).
func (s Stats) Control() uint64 { return s.Total() - s.Data }

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("guess=%d affirm=%d deny=%d replace=%d rollback=%d retract=%d data=%d cutprobe=%d cutack=%d revive=%d probe=%d nack=%d batch=%d dead=%d",
		s.Guess, s.Affirm, s.Deny, s.Replace, s.Rollback, s.Retract, s.Data,
		s.CutProbe, s.CutAck, s.Revive, s.Probe, s.Nack, s.Batch, s.Dead)
}

// Counters is the shared per-kind delivery counter block used by
// implementations; index 0 counts dead letters.
type Counters [16]atomic.Uint64

// Observe counts one delivered message of kind k (0 = dead letter).
func (c *Counters) Observe(k msg.Kind) { c[int(k)].Add(1) }

// Snapshot converts the counters into a Stats value.
func (c *Counters) Snapshot() Stats {
	n := func(k msg.Kind) uint64 { return c[int(k)].Load() }
	return Stats{
		Dead:     c[0].Load(),
		Guess:    n(msg.KindGuess),
		Affirm:   n(msg.KindAffirm),
		Deny:     n(msg.KindDeny),
		Replace:  n(msg.KindReplace),
		Rollback: n(msg.KindRollback),
		Retract:  n(msg.KindRetract),
		Data:     n(msg.KindData),
		CutProbe: n(msg.KindCutProbe),
		CutAck:   n(msg.KindCutAck),
		Revive:   n(msg.KindRevive),
		Probe:    n(msg.KindProbe),
		Nack:     n(msg.KindNack),
		Batch:    n(msg.KindBatch),
	}
}

// Local is the trivial in-process transport: synchronous delivery in the
// sender's goroutine, no latency, no loss. It is the engine's default and
// is equivalent to netsim with the Zero latency model. The zero value is
// not usable; construct with NewLocal.
type Local struct {
	mu       sync.RWMutex
	handlers map[ids.PID]Handler
	closed   bool

	counts Counters
}

// NewLocal constructs a Local transport.
func NewLocal() *Local {
	return &Local{handlers: make(map[ids.PID]Handler)}
}

// Register implements Transport.
func (l *Local) Register(pid ids.PID, h Handler) {
	l.mu.Lock()
	l.handlers[pid] = h
	l.mu.Unlock()
}

// Unregister implements Transport.
func (l *Local) Unregister(pid ids.PID) {
	l.mu.Lock()
	delete(l.handlers, pid)
	l.mu.Unlock()
}

// Send implements Transport: the handler runs before Send returns.
func (l *Local) Send(m *msg.Message) {
	l.mu.RLock()
	h := l.handlers[m.To]
	closed := l.closed
	l.mu.RUnlock()
	if closed {
		return
	}
	if h == nil {
		l.counts.Observe(0)
		return
	}
	l.counts.Observe(m.Kind)
	h(m)
}

// Inflight implements Transport; synchronous delivery means nothing is
// ever in flight.
func (l *Local) Inflight() int { return 0 }

// Drain implements Transport (a no-op for synchronous delivery).
func (l *Local) Drain() {}

// Close implements Transport.
func (l *Local) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

// Stats implements Transport.
func (l *Local) Stats() Stats { return l.counts.Snapshot() }

var _ Transport = (*Local)(nil)
