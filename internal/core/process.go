package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/mailbox"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/sets"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/vpm"
)

// rollbackPanic unwinds a body goroutine for re-execution after rollback.
type rollbackPanic struct{}

// terminatePanic unwinds a body goroutine for good (root rollback or
// engine shutdown).
type terminatePanic struct{}

var (
	errRolledBack    = errors.New("core: rolled back")
	errTerminatedSig = errors.New("core: terminate signal")
)

// Process is one HOPE user process: a deterministic body plus the HOPElib
// state attached to it (interval history, dependency sets, journal).
type Process struct {
	eng      *Engine
	body     Body
	birthIDO []ids.AID

	proc *vpm.Proc // set by bind before any goroutine starts

	mu       sync.Mutex
	history  *interval.History
	jnl      *journal.Journal
	seq      uint32
	dataQ    *mailbox.Box
	dead     *sets.AIDSet // assumptions known to be denied
	curIdx   int          // history position of the current interval
	pending  bool         // rollback performed, body must re-execute
	term     bool         // terminated: never runs again
	complete bool         // body returned (may still be speculative)
	runErr   error
	restarts int
	recving  bool // body parked inside Recv

	// Membership of the engine's live-work sets, kept by trackLocked.
	active    bool // running or awaiting re-execution
	holding   bool // withholding an Externalize output
	uncovered bool // finished, waiting for the frontier to cover it
	started   bool // registered by Engine.start: reaping may drop it
	reaped    bool // dropped from the engine (reap.go)

	// base is the latest compaction snapshot (see compact.go): the
	// state a re-execution resumes from instead of replaying the
	// process's whole life.
	base    any
	hasBase bool

	// externs holds outputs registered through Ctx.Externalize and not
	// yet released by the stability watermark; externsDone remembers the
	// call sites already released so a replay does not re-register them
	// (see stability.go). Both stay nil with the watermark off.
	externs     []externRec
	externsDone map[externKey]struct{}

	restartCh chan struct{}
	stopCh    chan struct{}
	stopOnce  sync.Once
	ready     chan struct{} // closed once bind has installed proc + root
}

func newProcess(eng *Engine, body Body, birthIDO []ids.AID) *Process {
	return &Process{
		eng:       eng,
		body:      body,
		birthIDO:  birthIDO,
		history:   interval.NewHistory(),
		jnl:       &journal.Journal{},
		dataQ:     mailbox.New(),
		dead:      sets.NewAIDSet(),
		restartCh: make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		ready:     make(chan struct{}),
	}
}

// bind attaches the vpm identity and creates the root interval. A process
// spawned by a speculative parent inherits the parent's IDO as its root
// dependency set: it is a causal descendant of those assumptions. When the
// engine holds recovered pre-crash state for this PID, the process is
// rebuilt from it instead (see restore.go).
func (p *Process) bind(proc *vpm.Proc) {
	p.proc = proc
	r := p.eng.takeRestored(proc.PID())
	p.mu.Lock()
	if r != nil && len(r.Intervals) > 0 {
		p.restoreLocked(r)
	} else {
		root := p.newIntervalLocked(interval.Root, 0, p.birthIDO, ids.NilAID)
		p.curIdx = p.history.Position(root.ID)
	}
	p.trackLocked()
	p.mu.Unlock()
	close(p.ready)
}

// trackLocked brings the engine's live-work sets in line with p's state:
// p is active while it may still act on its own — running, or rolled
// back and awaiting re-execution — and a holder while it withholds an
// Externalize output. A finished process is reaped, or, with the
// watermark, waits in the uncovered set until the frontier covers it
// (see reap.go). Called wherever that state changes.
func (p *Process) trackLocked() {
	if p.reaped {
		return
	}
	if active := !p.term && (p.pending || !p.complete); active != p.active {
		p.active = active
		p.eng.mark(p.eng.active, p, active)
	}
	if holding := len(p.externs) > 0; holding != p.holding {
		p.holding = holding
		p.eng.mark(p.eng.holders, p, holding)
	}
	settled, covered := p.settledLocked()
	if settled && covered && p.started {
		p.reapLocked()
		return
	}
	if uncovered := settled && !covered; uncovered != p.uncovered {
		p.uncovered = uncovered
		p.eng.mark(p.eng.uncovered, p, uncovered)
	}
}

// PID returns the process identifier.
func (p *Process) PID() ids.PID { return p.proc.PID() }

// newIntervalLocked appends a fresh interval whose IDO is the predecessor
// interval's live IDO plus extra, registers it with every AID it depends
// on (a Guess message each; the paper's DOM bookkeeping), and returns it.
// An interval born with an empty IDO is definite from the start.
func (p *Process) newIntervalLocked(kind interval.OpenKind, journalIndex int, extra []ids.AID, guessAID ids.AID) *interval.Record {
	id := ids.IntervalID{Proc: p.proc.PID(), Seq: p.seq, Epoch: p.eng.epochs.Next()}
	p.seq++
	rec := interval.NewRecord(id, kind, journalIndex)
	rec.GuessAID = guessAID
	if pred := p.history.Last(); pred != nil {
		rec.IDO = pred.IDO.Clone()
		// Unconfirmed cycle cuts are still live dependencies from the
		// successor's point of view: its speculation rests on them until
		// they are confirmed or revived (DESIGN.md §4).
		for _, a := range pred.Cut.Slice() {
			rec.IDO.Add(a)
		}
	}
	for _, a := range extra {
		rec.IDO.Add(a)
	}
	if rec.IDO.Empty() {
		rec.Definite = true
	}
	p.history.Append(rec)
	if st := p.eng.stability; st != nil {
		if rec.Definite {
			st.Issued(id.Epoch)
		} else {
			st.Opened(id.Epoch)
		}
	}
	p.persistIntervalOpen(rec)
	for _, a := range rec.IDO.Slice() {
		p.proc.Send(msg.Guess(p.proc.PID(), rec.ID, a))
	}
	return rec
}

// dispatch is the vpm body: the HOPElib message loop intercepting control
// messages (paper Figure 3) and routing user data to the Recv queue. Each
// frame stays counted in the machine's Pending until its handler
// returns, so Quiet never sees a frame that is neither queued nor acted
// upon.
func (p *Process) dispatch(proc *vpm.Proc) {
	<-p.ready // wait for bind: proc handle and root interval installed
	for {
		m, err := proc.Recv()
		if err != nil {
			return // mailbox closed: engine shutdown
		}
		switch m.Kind {
		case msg.KindData:
			p.handleData(m)
		case msg.KindReplace:
			p.handleReplace(m)
			p.eng.persistConsumed(m)
		case msg.KindRollback:
			p.handleRollback(m)
			p.eng.persistConsumed(m)
		case msg.KindRevive:
			p.handleRevive(m)
			p.eng.persistConsumed(m)
		case msg.KindCutAck:
			p.handleCutAck(m)
			p.eng.persistConsumed(m)
		default:
			p.eng.tracer.Emit(trace.Event{
				Kind: trace.Violation, PID: proc.PID(),
				Detail: "user process received " + m.Kind.String(),
			})
			p.eng.persistConsumed(m)
		}
		proc.Handled()
	}
}

// handleData enqueues a user message unless the process is terminated or
// the message's tag names an assumption already known to be denied (such
// a message is causally invalid and its sender has been rolled back).
func (p *Process) handleData(m *msg.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.term || p.reaped {
		p.eng.persistConsumed(m)
		return
	}
	if p.dead.Intersects(m.Tag) || p.eng.archiveInvalidates(m.Tag) {
		p.eng.tracer.Emit(trace.Event{
			Kind: trace.Info, PID: p.proc.PID(),
			Detail: fmt.Sprintf("dropped data message from %s with denied tag %v payload=%v", m.From, m.Tag, m.Payload),
		})
		p.eng.persistConsumed(m)
		return
	}
	p.dataQ.Put(m)
}

// handleReplace applies a Replace message to the target interval (paper
// Figure 10 / Figure 15 depending on the configured algorithm).
func (p *Process) handleReplace(m *msg.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec := p.history.Get(m.IID)
	if rec == nil || rec.Definite || p.term {
		return // stale target: the paper's "if target in history" guard
	}
	res := p.eng.ctl.Replace(rec, m.AID, m.IDO)
	p.persistIntervalState(rec)
	for _, y := range res.NewDeps {
		// Complete the DOM addition: register this interval with every
		// AID that replaced the sender (Figure 10). A dependency whose
		// verdict is already known locally is answered in place — the
		// network Guess could only echo back what the dead set or the
		// archive already says, and each such round trip re-registers
		// this process with y's machine. Under routed adjudication that
		// echo is what turns one denial into a storm: every rollback's
		// re-execution re-emits the Replace, re-guesses the dead
		// dependency, and grows the machine's DOM without bound.
		if p.dead.Contains(y) {
			p.rollbackLocked(rec)
			return
		}
		if verdict, ok := p.eng.Archived(y); ok {
			if !verdict {
				p.dead.Add(y)
				p.persistDeadAID(y)
				p.rollbackLocked(rec)
				return
			}
			// The machine's answer to a guess of an affirmed-and-collected
			// AID is Replace(y→nil); apply it directly. A nil replacement
			// set introduces no deps or cuts.
			p.eng.ctl.Replace(rec, y, nil)
			p.persistIntervalState(rec)
			continue
		}
		p.proc.Send(msg.Guess(p.proc.PID(), rec.ID, y))
	}
	for _, y := range res.NewCuts {
		// A provisional cycle cut: ask the cut AID to confirm it is
		// still conditionally affirmed (DESIGN.md §4). Without the
		// watermark a UDO member this interval saw affirmed was
		// discharged by ctl.Replace instead: its answer is known.
		p.eng.tracer.Emit(trace.Event{
			Kind: trace.Info, PID: p.proc.PID(), Interval: rec.ID, AID: y,
			Detail: "cycle cut pending confirmation",
		})
		p.proc.Send(msg.CutProbe(p.proc.PID(), rec.ID, y))
	}
	if rec.Finalizable() {
		p.finalizeLocked(rec)
	}
}

// handleCutAck retires a confirmed cycle cut; the interval finalizes if
// nothing else holds it.
func (p *Process) handleCutAck(m *msg.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.term {
		return
	}
	rec := p.history.Get(m.IID)
	if rec == nil || rec.Definite {
		return
	}
	rec.Cut.Remove(m.AID)
	p.persistIntervalState(rec)
	if rec.Finalizable() {
		p.finalizeLocked(rec)
	}
}

// finalizeLocked makes rec definite (paper Figure 11): its speculative
// affirms become unconditional and its buffered denies fire.
func (p *Process) finalizeLocked(rec *interval.Record) {
	rec.Definite = true
	if st := p.eng.stability; st != nil {
		st.Settled(rec.ID.Epoch)
	}
	p.persistFinalize(rec.ID)
	p.eng.tracer.Emit(trace.Event{
		Kind: trace.Finalize, PID: p.proc.PID(), Interval: rec.ID,
	})
	for _, y := range rec.IHA.Slice() {
		p.proc.Send(msg.Affirm(p.proc.PID(), rec.ID, y, nil))
	}
	for _, y := range rec.IHD.Slice() {
		p.proc.Send(msg.Deny(p.proc.PID(), rec.ID, y))
	}
	p.trackLocked()
}

// handleRevive re-establishes a direct dependency on an AID whose
// conditional affirm was retracted: whatever resolution of it the target
// interval performed — Replace substitution or a stale-UDO discard — came
// through the voided chain. A definite target is the narrow premature
// commit race this mechanism cannot repair; it is traced for visibility
// (see DESIGN.md §4).
func (p *Process) handleRevive(m *msg.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.term {
		return
	}
	rec := p.history.Get(m.IID)
	if rec == nil {
		return // stale target
	}
	if rec.Definite {
		// With the stability watermark on, a definite interval is
		// revocable until the frontier covers it: the premature commit the
		// retracted chain exposes is repaired by un-finalizing — rolling
		// the interval back so re-execution re-resolves the revived
		// dependency. A covered interval can no longer be wrong here (the
		// cut drained every in-flight retract), so reaching one is a
		// genuine violation, as is any definite target with the watermark
		// off (DESIGN.md §4.9, §12).
		if st := p.eng.stability; st != nil && !st.Covered(rec.ID.Epoch) {
			p.eng.tracer.Emit(trace.Event{
				Kind: trace.Info, PID: p.proc.PID(), Interval: rec.ID, AID: m.AID,
				Detail: "revoking uncovered definite interval (revive through a retracted chain)",
			})
			p.rollbackLocked(rec)
			return
		}
		p.eng.tracer.Emit(trace.Event{
			Kind: trace.Violation, PID: p.proc.PID(), Interval: rec.ID, AID: m.AID,
			Detail: "revive of definite interval: premature commit through a retracted chain",
		})
		return
	}
	added := rec.Revive(m.AID)
	p.persistIntervalState(rec)
	if added {
		p.proc.Send(msg.Guess(p.proc.PID(), rec.ID, m.AID))
		// The interval's speculative basis grew. Conditional affirms it
		// issued earlier advertised the old, smaller basis; refresh them
		// so dependents that replaced those assumptions acquire the new
		// dependency too (one hop of the commit-basis-growth propagation;
		// see DESIGN.md §4).
		if !rec.IHA.Empty() {
			basis := rec.IDO.Slice()
			for _, y := range rec.IHA.Slice() {
				p.proc.Send(msg.Affirm(p.proc.PID(), rec.ID, y, basis))
			}
		}
	}
}

// handleRollback rolls back the target interval and everything after it.
func (p *Process) handleRollback(m *msg.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.term {
		return
	}
	// Record the verdict before the stale-target guard: every Rollback
	// sender has the AID in state False, so the denial is true regardless
	// of whether the target interval still exists. Dropping it when the
	// interval was already rolled back deeper would let the re-executed
	// interval guess the same dead AID again (fresh epoch, so nothing
	// deduplicates it) and chase its own rollbacks indefinitely.
	if m.AID.Valid() {
		p.dead.Add(m.AID)
		p.persistDeadAID(m.AID)
	}
	rec := p.history.Get(m.IID)
	if rec == nil {
		// Stale target: the interval was already rolled back deeper. The
		// denial behind this message still stands, so reach through to
		// the earliest surviving interval that depends on the denied
		// AID — a machine fans out its deny exactly once per registered
		// interval, so a fan-out that races with a deeper rollback would
		// otherwise be lost for good and leave that dependent stuck
		// speculative (nothing ever re-sends it).
		if m.AID.Valid() {
			if iid, ok := p.earliestDependentOnLocked(m.AID); ok {
				if dep := p.history.Get(iid); dep != nil {
					p.rollbackLocked(dep)
				}
			}
		}
		return
	}
	if rec.Definite {
		// Revocable-commit mode: an uncovered definite interval is
		// un-finalized and rolled back like a speculative one — this is
		// the §4.9 repair path. Covered intervals are irrevocable.
		if st := p.eng.stability; st != nil && !st.Covered(rec.ID.Epoch) {
			p.eng.tracer.Emit(trace.Event{
				Kind: trace.Info, PID: p.proc.PID(), Interval: rec.ID, AID: m.AID,
				Detail: "revoking uncovered definite interval (rollback from denied dependency)",
			})
			p.rollbackLocked(rec)
			return
		}
		p.eng.tracer.Emit(trace.Event{
			Kind: trace.Violation, PID: p.proc.PID(), Interval: rec.ID, AID: m.AID,
			Detail: "rollback of definite interval (conflicting affirm/deny upstream)",
		})
		return
	}
	p.rollbackLocked(rec)
}

// rollbackLocked implements the paper's rollback (Figure 11) on top of
// journal truncation:
//
//   - every discarded interval's speculative affirms are retracted;
//   - the journal is cut just before the entry that opened the target
//     interval, so re-execution re-runs the opening primitive live: the
//     interval returns to "Begin" in Figure 9's state machine. A re-run
//     guess of a *denied* AID returns false (the dead-AID set); a re-run
//     guess whose interval was only rolled back transitively — some
//     other assumption it had come to depend on was denied — guesses
//     afresh, as the paper's interval state machine requires;
//   - received messages from the discarded suffix that remain causally
//     valid (no denied AID in their tag) are requeued in their original
//     order; assumptions created in the suffix are orphaned and denied
//     (DESIGN.md §4 item 5);
//   - the body goroutine is signalled to unwind and re-execute.
//
// Rollback of a speculative root terminates the process.
func (p *Process) rollbackLocked(rec *interval.Record) {
	if rec.Kind == interval.Root {
		p.eng.tracer.Emit(trace.Event{
			Kind: trace.Terminate, PID: p.proc.PID(), Interval: rec.ID,
		})
		if p.runErr == nil {
			// Even a body that already returned is retroactively undone:
			// its entire existence was speculation that failed.
			p.runErr = ErrTerminated
		}
		p.persistRollback(rec.ID)
		p.terminateLocked()
		return
	}

	pos := p.history.Position(rec.ID)
	removed := p.history.TruncateFrom(pos)
	for i := len(removed) - 1; i >= 0; i-- {
		r := removed[i]
		if st := p.eng.stability; st != nil {
			// A definite record here was already settled at finalize; its
			// revocation is an event but not a second settle. Speculative
			// records settle now, by being discarded.
			if r.Definite {
				st.Revoked(r.ID.Epoch)
			} else {
				st.Settled(r.ID.Epoch)
			}
		}
		for _, y := range r.IHA.Slice() {
			p.proc.Send(msg.Retract(p.proc.PID(), r.ID, y))
		}
	}

	discarded := p.jnl.Truncate(rec.JournalIndex)
	p.dropExternsLocked(rec.JournalIndex)
	p.persistRollback(rec.ID)

	// Requeue surviving receives and deny assumptions created in the
	// discarded suffix. A message whose tag names a denied assumption is
	// causally invalid — its sender has been rolled back — and is gone
	// for good; everything else is re-delivered in original order.
	//
	// Orphaned assumptions are denied rather than garbage collected:
	// other processes may have come to depend on them (directly through
	// tags or indirectly through Replace chains), and the only way to
	// release every such dependent is the denial's rollback fan-out. The
	// re-execution draws fresh identifiers, so nothing ever affirms an
	// orphan.
	var requeue []*msg.Message
	for _, e := range discarded {
		switch e.Kind {
		case journal.KindRecv, journal.KindTryRecv:
			if e.Msg == nil {
				continue // a TryRecv miss
			}
			if p.dead.Intersects(e.Msg.Tag) {
				p.eng.tracer.Emit(trace.Event{
					Kind: trace.Info, PID: p.proc.PID(),
					Detail: fmt.Sprintf("requeue-dropped message from %s with denied tag %v payload=%v", e.Msg.From, e.Msg.Tag, e.Msg.Payload),
				})
				p.eng.persistConsumed(e.Msg)
				continue
			}
			requeue = append(requeue, e.Msg)
		case journal.KindAidInit:
			p.dead.Add(e.AID)
			p.persistDeadAID(e.AID)
			p.proc.Send(msg.Deny(p.proc.PID(), rec.ID, e.AID))
		}
	}

	p.curIdx = p.history.Len() - 1

	// Purge queued-but-unreceived messages that are now known invalid,
	// then put surviving journalled messages back at the front so they
	// are re-received in their original order.
	p.dataQ.Purge(func(m *msg.Message) bool {
		if p.dead.Intersects(m.Tag) {
			p.eng.persistConsumed(m)
			return true
		}
		return false
	})
	p.dataQ.Requeue(requeue)

	p.pending = true
	p.trackLocked()
	p.restarts++
	p.eng.tracer.Emit(trace.Event{
		Kind: trace.Rollback, PID: p.proc.PID(), Interval: rec.ID,
		Detail: fmt.Sprintf("history=%d journal=%d requeued=%d", p.history.Len(), p.jnl.Len(), len(requeue)),
	})
	p.dataQ.Interrupt()
	select {
	case p.restartCh <- struct{}{}:
	default:
	}
}

// terminateLocked marks the process dead and wakes its body.
func (p *Process) terminateLocked() {
	if !p.term {
		// Settle whatever speculation the dead process leaves behind so
		// the stability watermark does not wait forever on a corpse, and
		// drop its gated outputs — a terminated process's existence was
		// failed speculation.
		if st := p.eng.stability; st != nil {
			for _, r := range p.history.Slice() {
				if !r.Definite {
					st.Settled(r.ID.Epoch)
				}
			}
		}
		p.externs = nil
	}
	p.term = true
	p.trackLocked()
	p.dataQ.Interrupt()
	p.stopOnce.Do(func() { close(p.stopCh) })
}

// shutdown is called by the engine: terminate and unblock the runner.
func (p *Process) shutdown() {
	p.mu.Lock()
	p.terminateLocked()
	p.mu.Unlock()
}

// run is the runner loop: execute the body, restart on rollback, park on
// completion until a further rollback or termination.
func (p *Process) run() {
	for {
		p.mu.Lock()
		if p.term {
			if p.runErr == nil {
				p.runErr = ErrTerminated
			}
			p.mu.Unlock()
			return
		}
		p.pending = false
		p.complete = false
		p.trackLocked()
		// Drain any stale restart token from a rollback already covered
		// by this re-execution.
		select {
		case <-p.restartCh:
		default:
		}
		p.mu.Unlock()

		err := p.execute()
		switch {
		case errors.Is(err, errRolledBack):
			p.eng.tracer.Emit(trace.Event{Kind: trace.Restart, PID: p.proc.PID()})
			continue
		case errors.Is(err, errTerminatedSig):
			p.mu.Lock()
			if p.runErr == nil {
				p.runErr = ErrTerminated
			}
			p.mu.Unlock()
			return
		}

		p.mu.Lock()
		p.complete = true
		p.runErr = err
		p.trackLocked()
		p.mu.Unlock()

		select {
		case <-p.restartCh:
			p.eng.tracer.Emit(trace.Event{Kind: trace.Restart, PID: p.proc.PID()})
			continue
		case <-p.stopCh:
			return
		}
	}
}

// execute runs the body once, translating unwinding panics into errors.
func (p *Process) execute() (err error) {
	defer func() {
		r := recover()
		switch r := r.(type) {
		case nil:
		case rollbackPanic:
			err = errRolledBack
		case terminatePanic:
			err = errTerminatedSig
		case *journal.DivergenceError:
			err = r
		default:
			err = fmt.Errorf("core: process body panic: %v\n%s", r, debug.Stack())
		}
	}()
	ctx := &Ctx{p: p}
	return p.body(ctx)
}

// parked reports whether the process is currently at rest: terminated,
// completed, or blocked in Recv with nothing queued. Frames still in its
// mailbox are the machine's Pending count, not this check.
func (p *Process) parked() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.term {
		return true
	}
	if p.pending {
		return false
	}
	if p.complete {
		return true
	}
	return p.recving && p.dataQ.Len() == 0
}

// Status is a consistent snapshot of a process's externally observable
// state, used by tests and the experiment harness.
type Status struct {
	PID ids.PID
	// Completed: the body has returned and no re-execution is pending.
	// A rollback of a completed process clears it at once, though the
	// runner restarts the body a moment later: between the two, the
	// truncated history can read all-definite.
	Completed   bool
	Terminated  bool
	Err         error
	Restarts    int
	Intervals   int
	AllDefinite bool
	DeadAIDs    []ids.AID
}

// Snapshot returns the process status under the process lock.
func (p *Process) Snapshot() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Status{
		PID:         p.proc.PID(),
		Completed:   p.complete && !p.pending,
		Terminated:  p.term,
		Err:         p.runErr,
		Restarts:    p.restarts,
		Intervals:   p.history.Len(),
		AllDefinite: p.history.AllDefinite(),
		DeadAIDs:    p.dead.Slice(),
	}
}

// JournalLen returns the current length of the replay journal (tests and
// capacity monitoring).
func (p *Process) JournalLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.jnl.Len()
}

// HistorySnapshot returns a copy of the interval records' identifiers,
// kinds, and definiteness, oldest first.
func (p *Process) HistorySnapshot() []IntervalInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]IntervalInfo, 0, p.history.Len())
	for _, r := range p.history.Slice() {
		out = append(out, IntervalInfo{
			ID:       r.ID,
			Kind:     r.Kind,
			GuessAID: r.GuessAID,
			Definite: r.Definite,
			IDO:      r.IDO.Slice(),
			UDO:      r.UDO.Slice(),
			Cut:      r.Cut.Slice(),
			Affirmed: r.Affirmed(),
		})
	}
	return out
}

// IntervalInfo describes one interval in a history snapshot.
type IntervalInfo struct {
	ID       ids.IntervalID
	Kind     interval.OpenKind
	GuessAID ids.AID
	Definite bool
	IDO      []ids.AID
	UDO      []ids.AID
	Cut      []ids.AID // unconfirmed cycle cuts: live dependencies too
	Affirmed []ids.AID // UDO members seen affirmed (interval.Record.Affirmed)
}
