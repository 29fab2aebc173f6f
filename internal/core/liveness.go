package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
)

// This file implements speculation leases — the liveness half of the
// failure model. The paper's five-state AID machine (Cold → Hot →
// Maybe → True/False) resolves every assumption *eventually*, but only
// if its owner keeps participating: an assumption whose owner dies
// permanently stays Hot forever, and every interval that guessed on it
// stays speculative forever. The lease bounds that wait. Every
// speculative (Hot-from-our-view) assumption carries a deadline; when
// the owner is declared Dead by the wire failure detector, or the lease
// expires with no owner traffic, the runtime denies the assumption
// locally. Auto-deny reuses the protocol's own machinery — a Deny into
// the AID table that hosts it, a synthesized Rollback fan-out when no
// reachable table does — so dependents roll back through the
// ordinary path and Theorem 5.1's consistency argument is unchanged: an
// auto-denied assumption is simply denied, and nothing that committed
// depended on it (a committed interval has an empty IDO by definition).

// OwnerStatus is what the lease layer knows about an assumption's
// owning node, supplied by LivenessConfig.Owner (in deployments, backed
// by wire.Node.HealthOf).
type OwnerStatus struct {
	// Remote marks an assumption owned by another node. Local
	// assumptions have no failure detector — only the lease applies,
	// and only expiry (not owner death) can fire it.
	Remote bool
	// Dead marks a remote owner declared dead by the failure detector.
	Dead bool
	// LastHeard is when the owner was last heard from (zero = never).
	// Owner traffic refreshes the lease: a slow-but-alive owner is not
	// timed out.
	LastHeard time.Time
}

// LivenessConfig parameterizes the engine's speculation leases. Nil (the
// default Config.Liveness) disables them.
type LivenessConfig struct {
	// Lease is how long an assumption may stay speculative without
	// owner traffic before it is auto-denied. It must comfortably
	// exceed the wire detector's DeadAfter plus normal resolution
	// latency: the lease is the backstop, the detector the fast path.
	Lease time.Duration
	// CheckEvery is the sweep period. Zero defaults to Lease/8
	// (clamped to [1ms, 1s]).
	CheckEvery time.Duration
	// Owner reports the health of an assumption's owning node. Nil
	// means no owner information: every assumption gets the plain
	// lease with no traffic-based refresh.
	Owner func(ids.AID) OwnerStatus
}

func (c *LivenessConfig) norm() *LivenessConfig {
	if c == nil || c.Lease <= 0 {
		return nil
	}
	out := *c
	if out.CheckEvery <= 0 {
		out.CheckEvery = out.Lease / 8
	}
	if out.CheckEvery < time.Millisecond {
		out.CheckEvery = time.Millisecond
	}
	if out.CheckEvery > time.Second {
		out.CheckEvery = time.Second
	}
	return &out
}

// AutoDenied returns how many assumptions the liveness layer has
// auto-denied on this engine.
func (e *Engine) AutoDenied() int64 { return e.autoDenied.Load() }

// AutoDeny denies assumption a on liveness grounds: the decision is
// archived (future guesses answer false locally), persisted through the
// WAL so a restart cannot resurrect the speculation, and propagated so
// every dependent interval rolls back through the ordinary Rollback
// path. Reports whether this call performed the denial (false: already
// archived).
func (e *Engine) AutoDeny(a ids.AID, reason string) bool {
	e.mu.Lock()
	if _, done := e.archive[a]; done {
		e.mu.Unlock()
		return false
	}
	e.archive[a] = false
	e.mu.Unlock()

	if per := e.persist; per != nil {
		per.AutoDenied(a)
	}
	e.autoDenied.Add(1)
	e.tracer.Emit(trace.Event{
		Kind: trace.Fault, AID: a,
		Detail: fmt.Sprintf("liveness: auto-denied %v (%s)", a, reason),
	})

	// A table that hosts a — ours, or the ring owner's — steps a protocol
	// Deny to False and fans Rollback out to its whole DOM, local and
	// remote alike. With none reachable (a dead node hosted it, or no ring
	// owner is known yet) nobody will fan out for us: roll back our own
	// dependents directly. With a ring the Deny is sent either way: while
	// no owner is known it parks, and reaches the owner a view names.
	deny := msg.Deny(a.PID(), ids.NilInterval, a)
	reached := e.router.reaches(deny)
	if reached || e.router.ring != nil {
		e.machine.Net().Send(deny)
	}
	if !reached {
		e.fanoutDenied(a)
	}
	return true
}

// DenyOwned auto-denies every assumption currently speculative in some
// local interval whose owning process satisfies owned. The wire
// failure-detector callback uses it with "owned by the dead node".
// Returns how many assumptions were denied.
//
// With the stability watermark on, the scan additionally reaches
// *through* uncovered definite intervals (their guessed assumption and
// stale-UDO residue): a §4.9 premature commit makes its interval
// definite while still resting on the dead node's unresolved
// assumptions, and only this reach-through lets the death repair it —
// the auto-deny's rollback then un-finalizes the interval (see
// process.go handleRollback). The lease sweeper deliberately does NOT
// get this extended view: expiring a lease on an assumption that is
// only "speculative" through a committed-but-not-yet-covered interval
// would spuriously roll back healthy commits whenever watermark rounds
// lag the lease.
func (e *Engine) DenyOwned(owned func(ids.PID) bool, reason string) int {
	set := e.speculativeAIDs()
	if e.stability != nil {
		for _, p := range e.Processes() {
			p.appendRevocableAIDs(set)
		}
	}
	denied := 0
	for a := range set {
		if !owned(a.PID()) {
			continue
		}
		// With ownership routing on, orphanhood is decided against the
		// view epoch at lease grant, not the current ring: an assumption
		// the ring has since reassigned to a live owner is a migration in
		// progress, not an orphan — the successor adjudicates it now, and
		// denying it here would kill speculation the handoff is saving.
		if e.router.migrationAdopted(a) {
			e.tracer.Emit(trace.Event{
				Kind: trace.Info, AID: a,
				Detail: "liveness: skipped deny, ring reassigned since lease grant (" + reason + ")",
			})
			continue
		}
		if e.AutoDeny(a, reason) {
			denied++
		}
	}
	return denied
}

// appendRevocableAIDs adds the assumptions reachable only through
// uncovered definite intervals: the guessed assumption that opened each
// one and any unresolved-dependency residue (UDO) a premature finalize
// left behind. Covered intervals are irrevocable and skipped.
func (p *Process) appendRevocableAIDs(out map[ids.AID]struct{}) {
	st := p.eng.stability
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.term {
		return
	}
	for _, r := range p.history.Slice() {
		if !r.Definite || st.Covered(r.ID.Epoch) {
			continue
		}
		if r.GuessAID.Valid() {
			out[r.GuessAID] = struct{}{}
		}
		for _, a := range r.UDO.Slice() {
			out[a] = struct{}{}
		}
	}
}

// fanoutDenied sends each local process a Rollback targeting its
// earliest non-definite interval depending on a — the synthesized
// equivalent of the Rollback the AID machine would have sent had it
// been reachable to deny.
func (e *Engine) fanoutDenied(a ids.AID) {
	for _, p := range e.Processes() {
		if iid, ok := p.earliestDependentOn(a); ok {
			e.machine.Net().Send(msg.Rollback(a, iid))
		}
	}
}

// speculativeAIDs returns the union of every assumption some local
// non-definite interval currently depends on (IDO or unconfirmed Cut).
// Walking the live processes is exact: a reaped one depends on nothing.
func (e *Engine) speculativeAIDs() map[ids.AID]struct{} {
	out := make(map[ids.AID]struct{})
	for _, p := range e.Processes() {
		p.appendSpeculativeAIDs(out)
	}
	return out
}

// SpeculativeAIDs returns, sorted, every assumption some local
// non-definite interval currently depends on. The cluster layer uses
// it as the key set for ownership checks: these are exactly the
// assumptions whose adjudication must have a live, agreed-upon owner.
func (e *Engine) SpeculativeAIDs() []ids.AID {
	set := e.speculativeAIDs()
	out := make([]ids.AID, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// leaseLoop is the lease sweeper goroutine: started by NewEngine when
// Config.Liveness is set, stopped by Shutdown.
func (e *Engine) leaseLoop() {
	defer close(e.leaseDone)
	t := time.NewTicker(e.liveness.CheckEvery)
	defer t.Stop()
	// firstSeen starts each assumption's lease clock at first sighting;
	// denied suppresses repeated fan-out while a denial's rollbacks are
	// still landing. Both are GC'd against the live speculation set.
	firstSeen := make(map[ids.AID]time.Time)
	denied := make(map[ids.AID]bool)
	for {
		select {
		case <-e.leaseStop:
			return
		case <-t.C:
		}
		e.sweepLeases(firstSeen, denied)
	}
}

func (e *Engine) sweepLeases(firstSeen map[ids.AID]time.Time, denied map[ids.AID]bool) {
	cfg := e.liveness
	now := time.Now()
	spec := e.speculativeAIDs()
	for a := range firstSeen {
		if _, live := spec[a]; !live {
			delete(firstSeen, a)
		}
	}
	for a := range denied {
		if _, live := spec[a]; !live {
			delete(denied, a)
		}
	}
	for a := range spec {
		if denied[a] {
			continue
		}
		if verdict, archived := e.Archived(a); archived {
			if !verdict {
				// An already-denied assumption with a live dependent: a
				// restart replayed speculation the WAL says is orphaned
				// (Config.Denied). Re-fan the rollback; the archive
				// answers any re-guess false.
				e.fanoutDenied(a)
				denied[a] = true
			}
			continue
		}
		first, ok := firstSeen[a]
		if !ok {
			firstSeen[a] = now
			continue
		}
		var owner OwnerStatus
		if cfg.Owner != nil {
			owner = cfg.Owner(a)
		}
		if owner.Remote && owner.Dead {
			if e.AutoDeny(a, "owner node dead") {
				denied[a] = true
			}
			continue
		}
		deadline := first.Add(cfg.Lease)
		if owner.Remote && !owner.LastHeard.IsZero() {
			// Owner traffic refreshes the lease.
			if d := owner.LastHeard.Add(cfg.Lease); d.After(deadline) {
				deadline = d
			}
		}
		if now.After(deadline) {
			if e.AutoDeny(a, fmt.Sprintf("lease expired (%v)", cfg.Lease)) {
				denied[a] = true
			}
		}
	}
}

// earliestDependentOn returns the oldest interval whose speculation
// rests on a, if any: a non-definite interval with a in its IDO or
// unconfirmed Cut — or, in revocable-commit mode, an uncovered definite
// interval that guessed a or still carries it as stale-UDO residue (a
// premature commit the resulting Rollback will un-finalize). This runs
// only after a denial is final, so the reach-through cannot misfire on
// healthy speculation.
func (p *Process) earliestDependentOn(a ids.AID) (ids.IntervalID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.earliestDependentOnLocked(a)
}

func (p *Process) earliestDependentOnLocked(a ids.AID) (ids.IntervalID, bool) {
	st := p.eng.stability
	if p.term {
		return ids.NilInterval, false
	}
	for _, r := range p.history.Slice() {
		if r.Definite {
			if st != nil && !st.Covered(r.ID.Epoch) &&
				(r.GuessAID == a || r.UDO.Contains(a)) {
				return r.ID, true
			}
			continue
		}
		if r.IDO.Contains(a) || r.Cut.Contains(a) {
			return r.ID, true
		}
	}
	return ids.NilInterval, false
}

// appendSpeculativeAIDs adds every assumption the process's non-definite
// intervals depend on (IDO or unconfirmed Cut) to out.
func (p *Process) appendSpeculativeAIDs(out map[ids.AID]struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.term {
		return
	}
	for _, r := range p.history.Slice() {
		if r.Definite {
			continue
		}
		for _, a := range r.IDO.Slice() {
			out[a] = struct{}{}
		}
		for _, a := range r.Cut.Slice() {
			out[a] = struct{}{}
		}
	}
}
