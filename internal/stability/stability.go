// Package stability implements HOPE's global commit watermark: a
// Mattern-style distributed stability protocol (the GVT computation of
// Time Warp systems) that computes, per cluster view epoch, the frontier
// below which every interval is *globally stable* — no in-flight
// Retract, Revive, or affirm-refresh anywhere in the system can ever
// reach it again.
//
// DESIGN.md §4.9 documents why the frontier is needed: the paper's local
// commit rule lets an interval finalize while a conditional affirm it
// transitively rests on is still retractable, so a "definite" interval
// can later receive a Rollback or Revive (the premature-commit window).
// The watermark closes the window at the *externalization* boundary:
// intervals still finalize locally exactly as the paper specifies (the
// wait-free local rule is untouched), but outputs — client prints, RPC
// responses — are released only once the watermark covers the emitting
// interval's epoch. Below the watermark, definite is irrevocable; above
// it, definite is a revocable speculation that the engine can unwind
// (see core's revocable-commit mode).
//
// The protocol is a two-sweep quiescence detection in the style of
// Mattern's distributed termination/GVT algorithms: the initiator (the
// lowest-numbered live member of the current cluster view) collects a
// Report from every live member twice in a row. The double collection is
// valid — a consistent cut with an empty message frontier — iff between
// the two sweeps no node opened, settled, or revoked an interval
// (per-node event counters unchanged), every node was quiescent at both
// sweeps with zero unsettled intervals, no node sent protocol messages
// (per-peer send sequence numbers unchanged), and every message sent by
// sweep one was delivered by sweep two (pairwise seq/ack drain). At such
// a cut, every interval ever allocated is settled and no protocol
// message is in flight, so nothing can retract a chain any finalized
// interval rests on: each node's maximum allocated interval epoch
// becomes its watermark entry. Frontiers only ever grow (per-node max
// merge), survive restarts through the durable layer's recWatermark
// records, and tolerate membership churn: a dead-but-unevicted member
// blocks rounds (its unacked in-flight frames fail the drain check, and
// it answers no sweep), and rounds resume once the cluster view's epoch
// floor evicts it from the member set.
package stability

import (
	"fmt"
	"sort"
	"sync"
)

// Tracker is one node's local stability bookkeeping: the interval event
// counter and unsettled count that stability reports snapshot, and the
// globally agreed frontier that gates externalization. It implements
// core.Stability. All methods are safe for concurrent use.
type Tracker struct {
	mu        sync.Mutex
	node      int
	events    uint64
	unsettled int64
	maxEpoch  uint32
	viewEpoch uint64
	frontier  map[int]uint32
	demand    chan struct{} // buffered 1: at most one pending signal

	audit *Audit
}

// NewTracker constructs a tracker for the given node ID.
func NewTracker(node int) *Tracker {
	return &Tracker{node: node, frontier: make(map[int]uint32), demand: make(chan struct{}, 1)}
}

// Demand is signalled whenever the node becomes settled — no unsettled
// interval — while holding an interval epoch its own frontier entry
// does not cover: a round could now advance the frontier. Signals
// coalesce; the node's Agent reads them (DESIGN.md §12, rounds on
// demand).
func (t *Tracker) Demand() <-chan struct{} { return t.demand }

// signalLocked raises Demand when settled work is uncovered. The send
// never blocks: Settled and Issued run under a process lock.
func (t *Tracker) signalLocked() {
	if t.unsettled == 0 && t.maxEpoch > t.frontier[t.node] {
		select {
		case t.demand <- struct{}{}:
		default:
		}
	}
}

// Node returns the owning node ID.
func (t *Tracker) Node() int { return t.node }

// SetAudit attaches an audit log that records frontier advances and
// gated emissions for the stability oracle. Nil detaches.
func (t *Tracker) SetAudit(a *Audit) {
	t.mu.Lock()
	t.audit = a
	t.mu.Unlock()
}

// Opened records the birth of a speculative interval.
func (t *Tracker) Opened(epoch uint32) {
	t.mu.Lock()
	t.events++
	t.unsettled++
	if epoch > t.maxEpoch {
		t.maxEpoch = epoch
	}
	t.mu.Unlock()
}

// Issued records an interval definite at birth (empty IDO): it opens and
// settles in one step, but still perturbs the event counter so a
// stability cut spanning it is invalidated.
func (t *Tracker) Issued(epoch uint32) {
	t.mu.Lock()
	t.events++
	if epoch > t.maxEpoch {
		t.maxEpoch = epoch
	}
	t.signalLocked()
	t.mu.Unlock()
}

// Settled records that a speculative interval left the unsettled set:
// it finalized, or it was discarded by rollback.
func (t *Tracker) Settled(epoch uint32) {
	t.mu.Lock()
	t.events++
	t.unsettled--
	t.signalLocked()
	t.mu.Unlock()
}

// Revoked records the un-finalize of a definite interval (revocable
// commit repairing a premature commit). The interval was already counted
// settled at finalize and is discarded by the accompanying rollback, so
// only the event counter moves — which is what matters: any cut that
// could have spanned the revocation is invalidated by it.
func (t *Tracker) Revoked(epoch uint32) {
	t.mu.Lock()
	t.events++
	t.mu.Unlock()
}

// Covered reports whether the agreed frontier covers a local interval
// epoch: covered intervals are globally stable and may externalize.
func (t *Tracker) Covered(epoch uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frontier[t.node] >= epoch
}

// Emitted records that a gated output of the given interval epoch was
// released, for the stability oracle's "no output above the watermark"
// invariant.
func (t *Tracker) Emitted(epoch uint32) {
	t.mu.Lock()
	a, w := t.audit, t.frontier[t.node]
	t.mu.Unlock()
	if a != nil {
		a.emitted(t.node, epoch, w)
	}
}

// Report snapshots the tracker's contribution to a stability report.
func (t *Tracker) Report() (events uint64, unsettled int64, maxEpoch uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events, t.unsettled, t.maxEpoch
}

// SetFrontier merges an agreed frontier into the tracker (per-node max:
// the frontier is monotone by construction, and stale advances from an
// older round must not regress it). It reports whether any entry
// actually advanced.
func (t *Tracker) SetFrontier(viewEpoch uint64, frontier map[int]uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	advanced := false
	for n, e := range frontier {
		if e > t.frontier[n] {
			t.frontier[n] = e
			advanced = true
		}
	}
	if viewEpoch > t.viewEpoch {
		t.viewEpoch = viewEpoch
	}
	return advanced
}

// Frontier returns the latest view epoch and a copy of the agreed
// frontier map.
func (t *Tracker) Frontier() (uint64, map[int]uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]uint32, len(t.frontier))
	for n, e := range t.frontier {
		out[n] = e
	}
	return t.viewEpoch, out
}

// FormatFrontier renders a frontier map deterministically
// ("0:41,1:17,2:33"), used by the HOPED STABLE stdout line and waldump.
func FormatFrontier(f map[int]uint32) string {
	nodes := make([]int, 0, len(f))
	for n := range f {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	s := ""
	for i, n := range nodes {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d:%d", n, f[n])
	}
	return s
}
