package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hope-dist/hope/internal/aid"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/mailbox"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/transport"
)

// This file implements the engine's AID table: the one host of the
// paper's AID machine (Figures 4–8). The paper's AID "process" is an
// abstraction (DESIGN.md §2); here it is an entry in a table that one
// goroutine steps from one mailbox. Each hosted assumption's PID is
// attached to that mailbox on the transport, so an assumption costs a
// table entry, not a goroutine, and adjudications still travel as
// messages: nothing is stepped inline under a process lock.
//
// Without a ring (Config.Routing nil) the table owns exactly the AIDs
// this engine minted or reinstalled from its WAL, and no message is
// re-addressed. With ownership routing (DESIGN.md §13) the adjudicator
// for an assumption is the node the consistent-hash ring designates, not
// the node that minted the AID. The engine's addressing step (address.go)
// sends every AID-bound adjudication (Guess, Affirm, Deny, Retract,
// CutProbe) to the ring owner's well-known router PID, stamped with the
// sender's view epoch; a receiver that does not own the AID under its own
// ring NACKs the frame back, and the sender retries against a fresher
// ring. On a view change the old owner ships each moved AID's machine
// snapshot to the new owner (OwnershipChanged); on an owner's death the
// successor adopts the shard from the corpse's WAL (InstallExports).
// Both install paths merge rather than overwrite, so a transfer racing
// the receiver's lazy Cold-create converges.
//
// Without a ring the table also reclaims decided assumptions as it serves
// (DESIGN.md §4 item 10): once a drain has sent a machine's final fan-out
// and exported it, a machine whose verdict no later message can change is
// dropped and only the verdict kept. A late frame for it is stepped on a
// machine rebuilt from that verdict, which answers it as the dropped one
// would have. The AID's PID stays attached. The verdicts are the table's
// own: they never feed the engine's archive until Collect moves them there.

// RoutingConfig parameterizes ownership routing. Nil (the default
// Config.Routing) means no ring: every AID is adjudicated by the engine
// that minted it, at the AID's own PID.
type RoutingConfig struct {
	// Self is this node's cluster ID.
	Self int
	// NodeOf maps a PID to its owning node (wire.NodeOf in deployments).
	NodeOf func(ids.PID) int
	// RouterPID maps a node to its router process's well-known PID
	// (wire.RouterPID in deployments). The engine spawns its own router
	// at RouterPID(Self).
	RouterPID func(node int) ids.PID
	// Owner maps an assumption to its ring-designated owner under the
	// current membership view, with the view's epoch. ok is false while
	// no view is known (bootstrap); routed sends then wait on the engine's
	// park queue until a view arrives.
	Owner func(ids.AID) (node int, epoch uint64, ok bool)
	// Ship transmits one encoded export batch to a node's routing layer
	// out of band (wire.Node.Transfer in deployments). It reports
	// whether the payload was accepted; a refused batch is re-exported
	// on the next view change. Nil disables live handoff (death
	// adoption through the WAL still works).
	Ship func(node int, payload []byte) bool
	// RetryEvery is the pacing of NACK/unknown-owner retries. Zero
	// defaults to 25ms.
	RetryEvery time.Duration
}

func (c *RoutingConfig) norm() *RoutingConfig {
	if c == nil {
		return nil
	}
	out := *c
	if out.RetryEvery <= 0 {
		out.RetryEvery = 25 * time.Millisecond
	}
	return &out
}

// AIDExporter is the optional durable hook for the AID table: a
// Persister that also implements it receives each hosted AID's current
// machine snapshot (blob = one-element aid.EncodeBatch) when it is
// minted, and again after each drain of the table's mailbox that changed
// it — before any frame of that drain is marked consumed — and an empty
// blob as a tombstone when the AID is shipped away. A restart reinstalls its own table from these records,
// and a dead owner's successor replays them to adopt the shard
// (durable.ReadExtract).
type AIDExporter interface {
	AIDExport(a ids.AID, blob []byte)
}

// RoutingStats counts the AID table's work, for tests and the harness's
// exactly-once assertions.
type RoutingStats struct {
	Applied    uint64 // adjudications applied to hosted machines
	Nacked     uint64 // inbound adjudications rejected for wrong ownership
	Retries    uint64 // messages re-sent after a NACK or unknown owner
	Duplicates uint64 // exact duplicates dropped by the applied set
	Moved      uint64 // hosted AIDs shipped to a new owner
	Adopted    uint64 // AIDs absorbed from a transfer or a WAL
	Batched    uint64 // retried adjudications that rode a coalesced Batch frame
	Reclaimed  uint64 // decided machines dropped to their verdict (no ring only)
}

// appliedKey identifies one state-changing adjudication (Affirm, Deny,
// Retract) for exactly-once application. idoHash folds the IDO set in
// (order-independently): a NACK retry or WAL replay of the same physical
// message collides, while a legitimate basis-refresh re-Affirm from the
// same interval (different IDO) does not.
type appliedKey struct {
	kind    msg.Kind
	from    ids.PID
	iid     ids.IntervalID
	idoHash uint64
}

func keyOf(m *msg.Message) appliedKey {
	var h uint64
	for _, a := range m.IDO {
		h ^= uint64(a) * 0x9e3779b97f4a7c15
	}
	return appliedKey{kind: m.Kind, from: m.From, iid: m.IID, idoHash: h}
}

// hostState is one assumption's machine as hosted by the table, plus
// the bookkeeping that makes application exactly-once.
type hostState struct {
	m       *aid.Machine
	applied map[appliedKey]bool // nil until the first Affirm, Deny or Retract
	moved   bool                // shipped to a new owner; kept as a tombstone
	dirty   bool                // changed since its last export (listed in router.dirty)
}

// router is the engine's AID table: one goroutine stepping hosted
// machines from one mailbox, which the transport feeds for every hosted
// AID's PID and, with a ring, for the node's well-known router PID. With
// a ring its pacer flushes the engine's park queue, where adjudications
// whose owner was stale or unknown wait.
type router struct {
	eng  *Engine
	ring *RoutingConfig // nil: no ring (see RoutingConfig)
	self int            // ring.Self; 0 without a ring

	box      *mailbox.Box
	handler  transport.Handler // deliver, made once: every attached PID shares it
	pending  atomic.Int64      // frames delivered to box and not yet handled
	stepped  chan struct{}
	exporter AIDExporter // the engine's Persister, when it keeps exports

	mu         sync.Mutex
	hosts      map[ids.AID]*hostState
	dirty      []ids.AID          // hosts changed since the last export flush
	grantEpoch map[ids.AID]uint64 // view epoch at first routed Guess (lease grant)
	// verdicts holds the reclaimed assumptions: AID → True. A machine
	// rebuilt from one for a late frame shadows it in hosts until the
	// drain ends.
	verdicts map[ids.AID]bool
	finals   []ids.AID // hosts stepped to a reclaimable verdict in this drain

	stats struct {
		applied, nacked, retries, duplicates, moved, adopted, batched, reclaimed uint64
	}

	stop chan struct{}
	done chan struct{}
}

// newRouter installs the table as e.router, then starts its goroutine
// and, with a ring, attaches the node's router PID and starts the retry
// pacer: both reach the engine's park queue through e.router. Called by
// NewEngine after the machine exists.
func newRouter(e *Engine, ring *RoutingConfig) {
	rt := &router{
		eng:        e,
		ring:       ring,
		box:        mailbox.New(),
		stepped:    make(chan struct{}),
		hosts:      make(map[ids.AID]*hostState),
		grantEpoch: make(map[ids.AID]uint64),
		verdicts:   make(map[ids.AID]bool),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	rt.handler = rt.deliver
	if ring != nil {
		rt.self = ring.Self
	}
	rt.exporter, _ = e.persist.(AIDExporter)
	e.router = rt
	go rt.run()
	if ring == nil {
		close(rt.done)
		return
	}
	e.machine.Attach(ring.RouterPID(rt.self), rt.handler)
	go rt.retryLoop()
}

// deliver is the transport handler for every PID attached to the table:
// a non-blocking enqueue, like a process mailbox's.
func (rt *router) deliver(m *msg.Message) {
	rt.pending.Add(1)
	rt.box.Put(m)
}

// maxDrain bounds how many queued frames the table handles between two
// export flushes.
const maxDrain = 64

// run steps the table until its mailbox closes at engine shutdown. It
// handles whatever is queued, up to maxDrain frames, then exports each
// machine those frames changed once, and only then marks the frames
// consumed in the WAL: a crash in between costs an idempotent replay of
// frames whose effect the last export may lack, never a lost one. Under
// load a drain holds many adjudications of the same few assumptions, so
// one export covers all of them. Machines the drain decided are reclaimed
// after the export, when both their fan-out and their final snapshot are
// out.
func (rt *router) run() {
	defer close(rt.stepped)
	batch := make([]*msg.Message, 0, maxDrain)
	for {
		m, err := rt.box.Recv()
		if err != nil {
			return
		}
		batch = append(batch[:0], m)
		for len(batch) < maxDrain {
			m, ok := rt.box.TryRecv()
			if !ok {
				break
			}
			batch = append(batch, m)
		}
		for _, m := range batch {
			rt.handle(m)
		}
		rt.flushExports()
		rt.reclaim()
		for i, m := range batch {
			rt.consumed(m)
			batch[i] = nil
		}
		rt.pending.Add(-int64(len(batch)))
	}
}

// flushExports writes the snapshot of every hosted machine changed since
// the last flush. The snapshots are taken under rt.mu and encoded
// outside it; an engine without an exporter never marks a host dirty.
func (rt *router) flushExports() {
	rt.mu.Lock()
	if len(rt.dirty) == 0 {
		rt.mu.Unlock()
		return
	}
	snaps := make([]aid.Export, 0, len(rt.dirty))
	for _, a := range rt.dirty {
		if h := rt.hosts[a]; h != nil && h.dirty {
			h.dirty = false
			if !h.moved {
				snaps = append(snaps, h.m.Export())
			}
		}
	}
	rt.dirty = rt.dirty[:0]
	rt.mu.Unlock()
	for _, snap := range snaps {
		rt.exporter.AIDExport(snap.AID, aid.EncodeBatch([]aid.Export{snap}))
	}
}

// busy reports whether an adjudication is queued, being stepped, or
// parked awaiting a retry: in-flight protocol traffic for Settle. A frame
// parked for a transplant mapping may wait forever, and does not count.
func (rt *router) busy() bool {
	if rt.pending.Load() > 0 {
		return true
	}
	rt.eng.xmu.RLock()
	defer rt.eng.xmu.RUnlock()
	return slices.ContainsFunc(rt.eng.parked, rt.routes)
}

// routes reports whether the ring addresses m: with a ring, every
// AID-bound adjudication.
func (rt *router) routes(m *msg.Message) bool {
	return rt.ring != nil && m.Kind.Adjudication() && m.AID.Valid()
}

// handle processes one inbound frame: a NACK of something we sent
// (hand it back to the engine), an adjudication to step or reject under our own ring, or
// a peer's Batch of them. run marks the frame consumed afterwards, which
// keeps the delivered-but-unconsumed fold (ReadExtract,
// Recovered.Redeliver) down to the frames a crash genuinely swallowed.
func (rt *router) handle(m *msg.Message) {
	switch {
	case m.Kind == msg.KindNack:
		if orig, ok := m.Payload.(*msg.Message); ok && orig != nil {
			rt.mu.Lock()
			rt.stats.nacked++
			rt.mu.Unlock()
			rt.eng.Requeue(orig)
		}
	case m.Kind.Adjudication():
		rt.adjudicate(m)
	case m.Kind == msg.KindBatch:
		// A peer's park-queue flush coalesced several adjudications bound for
		// this owner into one frame. Unpack and adjudicate each: an inner
		// message we turn out not to own is NACKed individually, so a batch
		// straddling a view change costs only the stale members a retry.
		inner, ok := m.Payload.([]*msg.Message)
		if !ok {
			rt.violation(fmt.Sprintf("AID table received Batch with %T payload", m.Payload))
			return
		}
		for _, im := range inner {
			switch {
			case im == nil:
			case im.Kind.Adjudication():
				rt.adjudicate(im)
			default:
				rt.violation("AID table received batched " + im.Kind.String())
			}
		}
	default:
		rt.violation("AID table received " + m.Kind.String())
	}
}

func (rt *router) violation(detail string) {
	rt.eng.tracer.Emit(trace.Event{Kind: trace.Violation, Detail: detail})
}

// consumed retires a remote-origin frame's WAL identity. Local frames
// (SrcSeq == 0) have none.
func (rt *router) consumed(m *msg.Message) {
	if per := rt.eng.persist; per != nil && m.SrcSeq != 0 {
		per.MessageConsumed(m)
	}
}

// owner names the node that adjudicates a under the current view. Without
// a ring it is always this engine: only the PIDs it attached reach it.
func (rt *router) owner(a ids.AID) (node int, epoch uint64, ok bool) {
	if rt.ring == nil {
		return rt.self, 0, true
	}
	return rt.ring.Owner(a)
}

// adjudicate applies m if this node owns m.AID under its current view,
// and NACKs it back to the sender's router otherwise.
func (rt *router) adjudicate(m *msg.Message) {
	net := rt.eng.machine.Net()
	if owner, epoch, ok := rt.owner(m.AID); !ok || owner != rt.self {
		self := rt.ring.RouterPID(rt.self)
		net.Send(msg.Nack(self, rt.ring.RouterPID(rt.ring.NodeOf(m.From)), epoch, m))
		return
	}
	for _, out := range rt.apply(m) {
		net.Send(out)
	}
}

// apply steps the hosted machine for m.AID with m, creating it Cold on
// first contact (or rebuilding it from a reclaimed verdict) and applying
// each state-changing adjudication once. It returns the machine's
// outputs. A conflicting Affirm or Deny at a final state is stepped like
// any other message: the machine traces it as the paper's §3 user error,
// whichever node hosts it. Two conflicts are not the user's and are
// dropped: an Affirm overtaken by its own interval's Retract, and the
// engine's own lease Deny reaching an assumption that was affirmed
// meanwhile.
func (rt *router) apply(m *msg.Message) []*msg.Message {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h := rt.hostLocked(m.AID)
	// Ownership came back (a leave was undone, or a transfer bounced):
	// the tombstone is live state again.
	h.moved = false
	outs := rt.stepLocked(h, m)
	if rt.reclaimable(h) {
		rt.finals = append(rt.finals, m.AID)
	}
	return outs
}

// stepLocked applies m to h once. Called with rt.mu held.
func (rt *router) stepLocked(h *hostState, m *msg.Message) []*msg.Message {
	// Guess and CutProbe are questions: the machine absorbs a repeat
	// idempotently and a repeat deserves its answer (a Revive re-asks the
	// same Guess). Affirm, Deny and Retract act for one interval and must
	// not apply twice when a NACK retry or a replayed frame repeats them.
	// An Affirm from an interval whose Retract was already applied is void
	// too: the interval rolled back, and only a NACK retry overtaking the
	// Retract delivers its Affirm this late — per-sender FIFO rules out
	// every other order.
	switch m.Kind {
	case msg.KindAffirm, msg.KindDeny, msg.KindRetract:
		key := keyOf(m)
		retracted := appliedKey{kind: msg.KindRetract, from: m.From, iid: m.IID}
		if h.applied[key] || m.Kind == msg.KindAffirm && h.applied[retracted] {
			rt.stats.duplicates++
			return nil
		}
		if rt.leaseDenyLost(m, h.m) {
			rt.eng.tracer.Emit(trace.Event{
				Kind: trace.Info, AID: m.AID,
				Detail: "AID table dropped a lease deny of an affirmed assumption",
			})
			return nil
		}
		if h.applied == nil {
			h.applied = make(map[appliedKey]bool)
		}
		h.applied[key] = true
	}
	v := h.m.Version()
	outs := h.m.Step(m)
	rt.stats.applied++
	if rt.exporter != nil && h.m.Version() != v && !h.dirty {
		h.dirty = true
		rt.dirty = append(rt.dirty, m.AID)
	}
	return outs
}

// leaseDenyLost reports whether m is the Deny the liveness layer sends on
// its own behalf (AutoDeny: from the assumption's own PID, for no
// interval) and it reached a machine already True outside revocable
// mode. The lease expired while the Affirm that decided the assumption
// was in flight; the affirmed verdict stands, and no user erred.
func (rt *router) leaseDenyLost(m *msg.Message, mach *aid.Machine) bool {
	return m.Kind == msg.KindDeny && m.From == m.AID.PID() && !m.IID.Valid() &&
		mach.State() == aid.True && rt.eng.stability == nil
}

// hostLocked returns a's hosted state, creating a Cold machine on first
// contact, or rebuilding a reclaimed one from its verdict. Called with
// rt.mu held.
func (rt *router) hostLocked(a ids.AID) *hostState {
	if h := rt.hosts[a]; h != nil {
		return h
	}
	var m *aid.Machine
	if verdict, ok := rt.verdicts[a]; ok {
		m = aid.FromExport(aid.Export{
			AID: a, State: verdictState(verdict), Revocable: rt.eng.stability != nil,
		}, rt.eng.tracer)
	} else {
		m = aid.NewMachine(a, rt.eng.tracer)
		if rt.eng.stability != nil {
			m.EnableRevocable()
		}
	}
	h := &hostState{m: m}
	rt.hosts[a] = h
	return h
}

func verdictState(verdict bool) aid.State {
	if verdict {
		return aid.True
	}
	return aid.False
}

// reclaimable reports whether h's machine may be dropped for its verdict:
// whether a machine rebuilt from the verdict alone answers every later
// message as h would (DESIGN.md §4 item 10). That holds for False, and
// for True when no Stability makes it revocable, with two exceptions.
// With a ring, h's applied set must stay to void a NACK-retried Affirm
// overtaken by its own interval's Retract. A machine that traced a
// violation keeps its applied set too, so a repeat of the conflicting
// adjudication stays a duplicate.
func (rt *router) reclaimable(h *hostState) bool {
	if rt.ring != nil || h.m.Violated() {
		return false
	}
	switch h.m.State() {
	case aid.False:
		return true
	case aid.True:
		return rt.eng.stability == nil
	}
	return false
}

// reclaim drops the machines this drain decided. run calls it after
// handle has sent their fan-out and flushExports has written their final
// snapshot, DOM included.
func (rt *router) reclaim() {
	rt.mu.Lock()
	for _, a := range rt.finals {
		rt.reclaimLocked(a)
	}
	rt.finals = rt.finals[:0]
	rt.mu.Unlock()
}

// reclaimLocked drops a's machine for its verdict if it is reclaimable.
// Called with rt.mu held.
func (rt *router) reclaimLocked(a ids.AID) {
	h := rt.hosts[a]
	if h == nil || !rt.reclaimable(h) {
		return
	}
	delete(rt.hosts, a)
	if _, rebuilt := rt.verdicts[a]; !rebuilt {
		rt.verdicts[a] = h.m.State() == aid.True
		rt.stats.reclaimed++
	}
}

// mint hosts a freshly allocated assumption. Without a ring its PID is
// attached to the table's mailbox and its Cold machine entered in the
// table — and exported, so a restart reinstalls it even if no frame for
// it was ever applied. With a ring nothing happens here: adjudications
// travel to the owner's router PID, which creates the machine on first
// contact.
func (rt *router) mint(a ids.AID) {
	if rt.ring != nil {
		return
	}
	rt.eng.machine.Attach(a.PID(), rt.handler)
	rt.mu.Lock()
	h := rt.hostLocked(a)
	var snap aid.Export
	if rt.exporter != nil {
		snap = h.m.Export()
	}
	rt.mu.Unlock()
	if rt.exporter != nil {
		rt.exporter.AIDExport(a, aid.EncodeBatch([]aid.Export{snap}))
	}
}

// reaches reports whether adjudication m has a table to step it: ours,
// when we host its AID, or the ring owner's, when resolve names one.
// False means none is reachable now: without a ring the AID lives on
// another engine; with one no owner is known yet.
func (rt *router) reaches(m *msg.Message) bool {
	if rt.ring != nil {
		return rt.eng.resolve(m, false) != nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h := rt.hosts[m.AID]
	_, decided := rt.verdicts[m.AID] // a reclaimed verdict still answers
	return h != nil && !h.moved || decided
}

// retryLoop flushes the park queue, NACKed and owner-unknown
// adjudications included, against the current ring, paced by RetryEvery.
func (rt *router) retryLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.ring.RetryEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		rt.eng.flush()
	}
}

// migrationAdopted reports whether assumption a has been reassigned by
// the ring since its lease was granted: the current view epoch is past
// the grant epoch and a live owner exists. Orphan detection (DenyOwned)
// must then leave a alone — the successor adjudicates it now, and
// denying it here would kill a migration in progress.
func (rt *router) migrationAdopted(a ids.AID) bool {
	_, epoch, ok := rt.owner(a)
	if !ok {
		return false
	}
	rt.mu.Lock()
	grant, seen := rt.grantEpoch[a]
	rt.mu.Unlock()
	return seen && epoch > grant
}

// shipBatches encodes and ships per-owner export batches; it returns
// the AIDs in batches that were refused so the caller can unmark them.
func (rt *router) shipBatches(batches map[int][]aid.Export) (tombstones, failed []ids.AID) {
	for owner, exports := range batches {
		payload := aid.EncodeBatch(exports)
		shipped := rt.ring.Ship != nil && rt.ring.Ship(owner, payload)
		for _, e := range exports {
			if shipped {
				tombstones = append(tombstones, e.AID)
			} else {
				failed = append(failed, e.AID)
			}
		}
	}
	return tombstones, failed
}

// OwnershipChanged re-evaluates every hosted assumption against the
// current ring and ships the machines this node no longer owns to their
// new owners over the transfer frame. Call it after each membership
// view change. A batch the transport refuses stays hosted and is
// re-offered on the next call; inbound adjudications for a moved AID
// are NACKed by the ownership check regardless, so the flag only
// prevents duplicate exports. Without a ring nothing ever moves.
func (e *Engine) OwnershipChanged() {
	rt := e.router
	rt.mu.Lock()
	batches := make(map[int][]aid.Export)
	for a, h := range rt.hosts {
		if h.moved {
			continue
		}
		owner, _, ok := rt.owner(a)
		if !ok || owner == rt.self {
			continue
		}
		batches[owner] = append(batches[owner], h.m.Export())
		h.moved = true
	}
	rt.mu.Unlock()
	tombstones, failed := rt.shipBatches(batches)
	rt.mu.Lock()
	rt.stats.moved += uint64(len(tombstones))
	for _, a := range failed {
		if h := rt.hosts[a]; h != nil {
			h.moved = false
		}
	}
	rt.mu.Unlock()
	for _, a := range tombstones {
		if rt.exporter != nil {
			// The shipped machine is no longer ours: tombstone its WAL
			// export so a successor adopting our corpse skips it.
			rt.exporter.AIDExport(a, nil)
		}
		e.tracer.Emit(trace.Event{
			Kind: trace.Info, AID: a, Detail: "shipped to new ring owner",
		})
	}
	// A view change is also the park queue's wake-up call: messages
	// parked on a stale owner may route cleanly now.
	e.flush()
}

// InstallTransfer absorbs an inbound export batch (the transfer-frame
// payload). Every export is merged unconditionally: a transfer is an
// explicit push from the previous owner, who tombstoned its copy the
// moment the ship was accepted — filtering by our own (possibly lagging)
// view here would drop the only live copy. If the ring still disagrees
// once our view catches up, the next OwnershipChanged ships the machine
// onward. Returns how many AIDs were absorbed.
func (e *Engine) InstallTransfer(payload []byte) (int, error) {
	exports, err := aid.DecodeBatch(payload)
	if err != nil {
		return 0, fmt.Errorf("core: install transfer: %w", err)
	}
	return e.router.install(exports, false), nil
}

// InstallExports absorbs WAL-recovered export blobs (one per AID, each
// a one-element batch): the restart path passes onlyOwned=false to
// reclaim its own table wholesale (with a ring, a later OwnershipChanged
// ships away what the ring moved meanwhile); the death-adoption path
// passes onlyOwned=true so concurrent survivors reading one corpse's WAL
// partition the shard without overlap. A restart must install before it
// redelivers recovered frames, so the AIDs those frames address are
// hosted again. It returns how many AIDs were absorbed.
func (e *Engine) InstallExports(blobs map[ids.AID][]byte, onlyOwned bool) (int, error) {
	var exports []aid.Export
	for a, blob := range blobs {
		if len(blob) == 0 {
			continue // tombstone: shipped away before the crash
		}
		decoded, err := aid.DecodeBatch(blob)
		if err != nil {
			return 0, fmt.Errorf("core: install exports for %v: %w", a, err)
		}
		exports = append(exports, decoded...)
	}
	return e.router.install(exports, onlyOwned), nil
}

// install merges exports into the hosted table, optionally filtered to
// ring-owned AIDs, attaches their PIDs when there is no ring, and
// persists each absorbed machine. A machine
// adopted in a final state re-announces its outcome to its DOM: the
// previous owner may have died with the fan-out still in its outbound
// queue, and no later Step repeats it (stepAffirm on True is a no-op).
// Replace and Rollback carry the stale-target guard at intervals, so a
// fan-out that did survive makes these duplicates, not conflicts. Once
// announced and persisted, a reclaimable one is reclaimed.
func (rt *router) install(exports []aid.Export, onlyOwned bool) int {
	installed := 0
	var snaps []aid.Export
	var announce []*msg.Message
	var decided []ids.AID
	rt.mu.Lock()
	for _, exp := range exports {
		if onlyOwned {
			owner, _, ok := rt.owner(exp.AID)
			if !ok || owner != rt.self {
				continue
			}
		}
		if rt.ring == nil {
			rt.eng.machine.Attach(exp.AID.PID(), rt.handler)
		}
		h := rt.hostLocked(exp.AID)
		h.moved = false
		h.m.Merge(exp)
		rt.stats.adopted++
		installed++
		if rt.exporter != nil {
			snaps = append(snaps, h.m.Export())
		}
		switch h.m.State() {
		case aid.True:
			for _, b := range h.m.DOM() {
				announce = append(announce, msg.Replace(exp.AID, b, nil))
			}
			decided = append(decided, exp.AID)
		case aid.False:
			for _, b := range h.m.DOM() {
				announce = append(announce, msg.Rollback(exp.AID, b))
			}
			decided = append(decided, exp.AID)
		}
	}
	rt.mu.Unlock()
	for _, snap := range snaps {
		rt.exporter.AIDExport(snap.AID, aid.EncodeBatch([]aid.Export{snap}))
	}
	for _, m := range announce {
		rt.eng.machine.Net().Send(m)
	}
	rt.mu.Lock()
	for _, a := range decided {
		rt.reclaimLocked(a)
	}
	rt.mu.Unlock()
	return installed
}

// RoutingStats snapshots the AID table's counters.
func (e *Engine) RoutingStats() RoutingStats {
	rt := e.router
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return RoutingStats{
		Applied:    rt.stats.applied,
		Nacked:     rt.stats.nacked,
		Retries:    rt.stats.retries,
		Duplicates: rt.stats.duplicates,
		Moved:      rt.stats.moved,
		Adopted:    rt.stats.adopted,
		Batched:    rt.stats.batched,
		Reclaimed:  rt.stats.reclaimed,
	}
}

// HostedExports snapshots every live (non-moved) hosted machine, for
// the migration oracle and tests. A reclaimed verdict is not a machine
// and is not listed.
func (e *Engine) HostedExports() []aid.Export {
	rt := e.router
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]aid.Export, 0, len(rt.hosts))
	for _, h := range rt.hosts {
		if h.moved {
			continue
		}
		out = append(out, h.m.Export())
	}
	return out
}

// HostedState returns the state of a on this node, and whether this node
// currently adjudicates it: it hosts a live machine for a, or a's
// reclaimed verdict. Tests use it to assert exactly-one-host.
func (e *Engine) HostedState(a ids.AID) (aid.State, bool) {
	rt := e.router
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h := rt.hosts[a]; h != nil {
		if h.moved {
			return 0, false
		}
		return h.m.State(), true
	}
	if verdict, ok := rt.verdicts[a]; ok {
		return verdictState(verdict), true
	}
	return 0, false
}

// collect archives the verdict of every final hosted machine and of
// every reclaimed assumption, drops them from the table, and, without a
// ring, detaches their PIDs (a later frame to one is a dead letter;
// guesses are answered from the archive before any is sent). It reads the
// table directly, so it sends nothing. Moved tombstones are dropped too.
// It returns how many assumptions were archived.
func (rt *router) collect() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	collected := 0
	for a, h := range rt.hosts {
		st := h.m.State()
		if h.moved {
			delete(rt.hosts, a)
			continue
		}
		if !st.Final() {
			continue
		}
		delete(rt.hosts, a)
		delete(rt.verdicts, a) // a rebuilt machine shadowed it
		rt.archiveLocked(a, st == aid.True)
		collected++
	}
	for a, verdict := range rt.verdicts {
		rt.archiveLocked(a, verdict)
		collected++
	}
	rt.verdicts = make(map[ids.AID]bool)
	return collected
}

// archiveLocked hands a's verdict to the engine's archive and, without a
// ring, detaches its PID. Called with rt.mu held.
func (rt *router) archiveLocked(a ids.AID, verdict bool) {
	rt.eng.mu.Lock()
	rt.eng.archive[a] = verdict
	rt.eng.mu.Unlock()
	if rt.ring == nil {
		rt.eng.machine.Detach(a.PID())
	}
}

// stopRetries stops the retry pacer.
func (rt *router) stopRetries() {
	close(rt.stop)
	<-rt.done
}

// close stops the table's goroutine once nothing can address it any more.
func (rt *router) close() {
	rt.box.Close()
	<-rt.stepped
}
