package core

import (
	"fmt"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/mailbox"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
)

// Ctx is a process body's handle to the HOPE primitives and to messaging.
// A Ctx is only valid inside the body invocation it was passed to and
// must not be shared across goroutines: a HOPE process is a *sequential*
// process (paper §3).
//
// Every method both records to and replays from the process journal, so
// bodies re-executed after a rollback transparently fast-forward through
// the retained prefix of their history.
type Ctx struct {
	p      *Process
	cursor int // journal replay position; == journal length ⇒ live
}

// PID returns the identifier of the executing process.
func (c *Ctx) PID() ids.PID { return c.p.proc.PID() }

// replayingLocked reports whether the next interaction comes from the
// journal rather than being performed live.
func (c *Ctx) replayingLocked() bool { return c.cursor < c.p.jnl.Len() }

// checkInterruptLocked unwinds the body if a rollback or termination is
// pending. Every primitive calls it first, making primitives the
// rollback preemption points.
func (c *Ctx) checkInterruptLocked() {
	if c.p.term {
		panic(terminatePanic{})
	}
	if c.p.pending {
		panic(rollbackPanic{})
	}
}

// basisLocked returns the current interval's speculative basis: its live
// IDO plus any unconfirmed cycle cuts — an interval with pending cuts is
// NOT definite (its emptiness may rest on a stale cut; DESIGN.md §4), so
// conditional assertions must be predicated on the cut AIDs as well.
func (c *Ctx) basisLocked() (cur *interval.Record, basis []ids.AID, definite bool) {
	cur = c.p.history.At(c.p.curIdx)
	basis = cur.IDO.Slice()
	basis = append(basis, cur.Cut.Slice()...)
	return cur, basis, len(basis) == 0
}

// resolvedLocked reports whether x's truth is already known locally:
// denied in this process's dead set, or archived by assumption GC.
func (c *Ctx) resolvedLocked(x ids.AID) (verdict, known bool) {
	if c.p.dead.Contains(x) {
		return false, true
	}
	return c.p.eng.Archived(x)
}

// expectLocked returns the journal entry at the cursor, unwinding with a
// divergence error if its kind does not match what the body performed.
func (c *Ctx) expectLocked(k journal.Kind, got string) *journal.Entry {
	e := c.p.jnl.At(c.cursor)
	if e.Kind != k {
		panic(&journal.DivergenceError{Index: c.cursor, Want: e, Got: got})
	}
	return e
}

// AidInit creates a fresh assumption identifier, spawning its AID
// process (the paper's aid_init).
func (c *Ctx) AidInit() ids.AID {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()
	return c.aidInitLocked()
}

func (c *Ctx) aidInitLocked() ids.AID {
	p := c.p
	if c.replayingLocked() {
		e := c.expectLocked(journal.KindAidInit, "aidinit")
		c.cursor++
		return e.AID
	}
	a, err := p.eng.NewAID()
	if err != nil {
		panic(terminatePanic{}) // engine shutting down
	}
	p.appendJournalLocked(&journal.Entry{Kind: journal.KindAidInit, AID: a})
	c.cursor = p.jnl.Len()
	p.eng.tracer.Emit(trace.Event{
		Kind: trace.Primitive, PID: p.proc.PID(), AID: a, Detail: "aid_init",
	})
	return a
}

// Guess makes the optimistic assumption x (paper §3): it eagerly returns
// true and opens a new speculative interval dependent on x. If x is later
// denied, the process rolls back to this point and Guess returns false.
// Passing NilAID creates a fresh assumption first (the paper's guess(⊥));
// pair it with GuessNew when the identifier is needed.
func (c *Ctx) Guess(x ids.AID) bool {
	_, ok := c.GuessNew(x)
	return ok
}

// GuessNew is Guess returning the assumption identifier as well, which is
// the paper's idiom for creating and guessing in one step.
func (c *Ctx) GuessNew(x ids.AID) (ids.AID, bool) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()
	if !x.Valid() {
		x = c.aidInitLocked()
	}

	if c.replayingLocked() {
		e := c.expectLocked(journal.KindGuess, "guess("+x.String()+")")
		if e.AID != x {
			panic(&journal.DivergenceError{Index: c.cursor, Want: e, Got: "guess(" + x.String() + ")"})
		}
		c.cursor++
		p.curIdx = p.history.Position(e.Interval)
		return x, e.Result
	}

	if verdict, known := c.resolvedLocked(x); known {
		// x is already known final — denied locally, or archived by
		// assumption GC: answer without speculation or a round trip,
		// exactly as the AID machine's Rollback / Replace-null would.
		rec := p.newIntervalLocked(interval.Guessed, p.jnl.Len(), nil, x)
		p.appendJournalLocked(&journal.Entry{Kind: journal.KindGuess, AID: x, Result: verdict, Interval: rec.ID})
		c.cursor = p.jnl.Len()
		p.curIdx = p.history.Position(rec.ID)
		p.eng.tracer.Emit(trace.Event{
			Kind: trace.Primitive, PID: p.proc.PID(), AID: x, Interval: rec.ID,
			Detail: fmt.Sprintf("guess=%v (known final)", verdict),
		})
		return x, verdict
	}

	rec := p.newIntervalLocked(interval.Guessed, p.jnl.Len(), []ids.AID{x}, x)
	p.appendJournalLocked(&journal.Entry{Kind: journal.KindGuess, AID: x, Result: true, Interval: rec.ID})
	c.cursor = p.jnl.Len()
	p.curIdx = p.history.Position(rec.ID)
	p.eng.tracer.Emit(trace.Event{
		Kind: trace.Primitive, PID: p.proc.PID(), AID: x, Interval: rec.ID,
		Detail: "guess=true",
	})
	return x, true
}

// Affirm asserts that x's assumption is correct. Executed in a definite
// interval the affirm is unconditional; executed speculatively it is
// conditional on the interval's IDO set and is re-sent unconditionally
// when the interval finalizes (paper Figure 11).
func (c *Ctx) Affirm(x ids.AID) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()

	if c.replayingLocked() {
		c.expectLocked(journal.KindAffirm, "affirm("+x.String()+")")
		c.cursor++
		return
	}

	cur, basis, definite := c.basisLocked()
	if definite {
		p.proc.Send(msg.Affirm(p.proc.PID(), cur.ID, x, nil))
	} else {
		cur.IHA.Add(x)
		p.persistIntervalState(cur)
		p.proc.Send(msg.Affirm(p.proc.PID(), cur.ID, x, basis))
	}
	p.appendJournalLocked(&journal.Entry{Kind: journal.KindAffirm, AID: x})
	c.cursor = p.jnl.Len()
	p.eng.tracer.Emit(trace.Event{
		Kind: trace.Primitive, PID: p.proc.PID(), AID: x, Interval: cur.ID,
		Detail: fmt.Sprintf("affirm (speculative=%v)", !definite),
	})
}

// Deny asserts that x's assumption is incorrect. Denies are unconditional
// and fire immediately (paper Table 1, Figure 8); see DenyDeferred for
// the footnote-1 buffered variant and DESIGN.md §4 for when each is the
// right tool.
func (c *Ctx) Deny(x ids.AID) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()

	if c.replayingLocked() {
		c.expectLocked(journal.KindDeny, "deny("+x.String()+")")
		c.cursor++
		return
	}

	c.denyLocked(x)
	p.appendJournalLocked(&journal.Entry{Kind: journal.KindDeny, AID: x})
	c.cursor = p.jnl.Len()
}

func (c *Ctx) denyLocked(x ids.AID) {
	p := c.p
	cur := p.history.At(p.curIdx)
	cur.IHD.Add(x)
	p.persistIntervalState(cur)
	p.proc.Send(msg.Deny(p.proc.PID(), cur.ID, x))
	p.eng.tracer.Emit(trace.Event{
		Kind: trace.Primitive, PID: p.proc.PID(), AID: x, Interval: cur.ID,
		Detail: fmt.Sprintf("deny (speculative=%v)", !cur.IDO.Empty()),
	})
}

// DenyDeferred is the footnote-1 variant of Deny: executed speculatively,
// the deny is buffered in the interval's IHD set and fires only when the
// interval finalizes — so a deny decided from speculative input is
// silently revoked if that input is rolled back. Executed in a definite
// interval it behaves exactly like Deny.
//
// Use DenyDeferred when the denial decision is computed from data that
// other assumptions may invalidate; use Deny when the denial must take
// effect regardless (e.g. it concerns an assumption this very interval
// depends on, where deferral would deadlock).
func (c *Ctx) DenyDeferred(x ids.AID) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()

	if c.replayingLocked() {
		c.expectLocked(journal.KindDeny, "deny-deferred("+x.String()+")")
		c.cursor++
		return
	}

	cur, _, definite := c.basisLocked()
	cur.IHD.Add(x)
	p.persistIntervalState(cur)
	if definite {
		p.proc.Send(msg.Deny(p.proc.PID(), cur.ID, x))
	} // else: fires at finalize (Figure 11)
	p.appendJournalLocked(&journal.Entry{Kind: journal.KindDeny, AID: x})
	c.cursor = p.jnl.Len()
	p.eng.tracer.Emit(trace.Event{
		Kind: trace.Primitive, PID: p.proc.PID(), AID: x, Interval: cur.ID,
		Detail: fmt.Sprintf("deny-deferred (buffered=%v)", !definite),
	})
}

// FreeOf asserts that the current computation is not dependent on x
// (paper §3): if a dependency is detected x is denied — rolling back
// every computation dependent on it, including this one — otherwise x is
// affirmed. It returns whether the computation was free of x.
//
// If x is already known denied (this process was previously rolled back
// because of it), FreeOf reports true without re-affirming: the earlier
// deny stands.
func (c *Ctx) FreeOf(x ids.AID) bool {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()

	if c.replayingLocked() {
		e := c.expectLocked(journal.KindFreeOf, "free_of("+x.String()+")")
		c.cursor++
		return e.Result
	}

	cur, basis, definite := c.basisLocked()
	var result bool
	_, known := c.resolvedLocked(x)
	switch {
	case cur.IDO.Contains(x):
		result = false
		c.denyLocked(x)
	case known:
		result = true // already final; no re-assertion needed (or possible)
	default:
		result = true
		if definite {
			p.proc.Send(msg.Affirm(p.proc.PID(), cur.ID, x, nil))
		} else {
			cur.IHA.Add(x)
			p.persistIntervalState(cur)
			p.proc.Send(msg.Affirm(p.proc.PID(), cur.ID, x, basis))
		}
	}
	p.appendJournalLocked(&journal.Entry{Kind: journal.KindFreeOf, AID: x, Result: result})
	c.cursor = p.jnl.Len()
	p.eng.tracer.Emit(trace.Event{
		Kind: trace.Primitive, PID: p.proc.PID(), AID: x, Interval: cur.ID,
		Detail: fmt.Sprintf("free_of=%v", result),
	})
	return result
}

// Send transmits payload to another process asynchronously, tagged with
// this interval's IDO set so the receiver becomes dependent on the same
// assumptions (paper §3's dependency tracking by message tags).
func (c *Ctx) Send(to ids.PID, payload any) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()

	if c.replayingLocked() {
		e := c.expectLocked(journal.KindSend, fmt.Sprintf("send(to=%s)", to))
		if e.Msg.To != to {
			panic(&journal.DivergenceError{Index: c.cursor, Want: e, Got: fmt.Sprintf("send(to=%s)", to)})
		}
		c.cursor++
		return // already sent before the rollback; never re-sent
	}

	cur, basis, _ := c.basisLocked()
	m := msg.Data(p.proc.PID(), to, cur.ID, basis, payload)
	p.appendJournalLocked(&journal.Entry{Kind: journal.KindSend, Msg: m})
	c.cursor = p.jnl.Len()
	p.proc.Send(m)
}

// Recv blocks for the next user message and returns its payload and
// sender. Receiving a message whose tag carries assumptions this process
// does not yet depend on applies the paper's implicit guesses: a new
// speculative interval dependent on them is opened, so a later denial
// rolls the process back to just before this receive (and the message is
// not re-delivered).
func (c *Ctx) Recv() (payload any, from ids.PID, err error) {
	if m, ok := c.recvReplay(); ok {
		return m.Payload, m.From, nil
	}
	for {
		c.preRecv()
		m, rerr := c.p.dataQ.Recv()
		if acc, ok := c.postRecv(m, rerr); ok {
			return acc.Payload, acc.From, nil
		}
	}
}

// recvReplay consumes a journalled receive if the cursor is replaying.
func (c *Ctx) recvReplay() (*msg.Message, bool) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()
	if !c.replayingLocked() {
		return nil, false
	}
	e := c.expectLocked(journal.KindRecv, "recv")
	c.cursor++
	if e.Interval.Valid() {
		p.curIdx = p.history.Position(e.Interval)
	}
	return e.Msg, true
}

// preRecv marks the body as parked in Recv, unwinding first if a
// rollback or termination is already pending.
func (c *Ctx) preRecv() {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()
	p.recving = true
}

// postRecv validates and journals a received message, opening an implicit
// interval when the tag carries new dependencies. ok=false means the
// caller should block again (spurious wakeup or invalidated message).
func (c *Ctx) postRecv(m *msg.Message, rerr error) (*msg.Message, bool) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recving = false
	if rerr != nil {
		c.checkInterruptLocked() // unwinds on rollback/termination
		if rerr == mailbox.ErrClosed {
			panic(terminatePanic{})
		}
		return nil, false // spurious interrupt, already handled
	}
	if p.dead.Intersects(m.Tag) || p.eng.archiveInvalidates(m.Tag) {
		p.eng.persistConsumed(m)
		return nil, false // invalidated while queued
	}

	cur := p.history.At(p.curIdx)
	var newDeps []ids.AID
	for _, a := range m.Tag {
		if cur.IDO.Contains(a) {
			continue
		}
		if v, ok := p.eng.Archived(a); ok && v {
			continue // archived-true: no dependency to acquire
		}
		newDeps = append(newDeps, a)
	}
	entry := &journal.Entry{Kind: journal.KindRecv, Msg: m}
	if len(newDeps) > 0 {
		rec := p.newIntervalLocked(interval.Implicit, p.jnl.Len(), newDeps, ids.NilAID)
		entry.Interval = rec.ID
		p.appendJournalLocked(entry)
		p.curIdx = p.history.Position(rec.ID)
		p.eng.tracer.Emit(trace.Event{
			Kind: trace.Primitive, PID: p.proc.PID(), Interval: rec.ID,
			Detail: fmt.Sprintf("implicit guess on %d tag AIDs", len(newDeps)),
		})
	} else {
		p.appendJournalLocked(entry)
	}
	c.cursor = p.jnl.Len()
	return m, true
}

// TryRecv is Recv without blocking; ok reports whether a message was
// available. The outcome — including a miss — is journalled, so replayed
// executions observe the same availability the original did.
func (c *Ctx) TryRecv() (payload any, from ids.PID, ok bool) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()

	if c.replayingLocked() {
		e := c.expectLocked(journal.KindTryRecv, "tryrecv")
		c.cursor++
		if !e.Result {
			return nil, ids.NilPID, false
		}
		if e.Interval.Valid() {
			p.curIdx = p.history.Position(e.Interval)
		}
		return e.Msg.Payload, e.Msg.From, true
	}

	var m *msg.Message
	for {
		got, any := p.dataQ.TryRecv()
		if !any {
			p.appendJournalLocked(&journal.Entry{Kind: journal.KindTryRecv, Result: false})
			c.cursor = p.jnl.Len()
			return nil, ids.NilPID, false
		}
		if p.dead.Intersects(got.Tag) || p.eng.archiveInvalidates(got.Tag) {
			p.eng.persistConsumed(got)
			continue // invalidated while queued; try the next one
		}
		m = got
		break
	}

	cur := p.history.At(p.curIdx)
	var newDeps []ids.AID
	for _, a := range m.Tag {
		if cur.IDO.Contains(a) {
			continue
		}
		if v, ok := p.eng.Archived(a); ok && v {
			continue // archived-true: no dependency to acquire
		}
		newDeps = append(newDeps, a)
	}
	entry := &journal.Entry{Kind: journal.KindTryRecv, Result: true, Msg: m}
	if len(newDeps) > 0 {
		rec := p.newIntervalLocked(interval.Implicit, p.jnl.Len(), newDeps, ids.NilAID)
		entry.Interval = rec.ID
		p.appendJournalLocked(entry)
		p.curIdx = p.history.Position(rec.ID)
	} else {
		p.appendJournalLocked(entry)
	}
	c.cursor = p.jnl.Len()
	return m.Payload, m.From, true
}

// Spawn starts a child process. A child spawned from a speculative
// interval is a causal descendant of its assumptions: its root interval
// inherits the spawner's IDO set, and rolling the spawner back past this
// point terminates the child.
func (c *Ctx) Spawn(body Body) ids.PID {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()

	if c.replayingLocked() {
		e := c.expectLocked(journal.KindSpawn, "spawn")
		c.cursor++
		p.eng.respawnChild(e.Child, body)
		return e.Child
	}

	cur, basis, _ := c.basisLocked()
	child, err := p.eng.spawn(p.eng.freshPID(), body, basis)
	if err != nil {
		panic(terminatePanic{})
	}
	p.appendJournalLocked(&journal.Entry{Kind: journal.KindSpawn, Child: child.PID()})
	c.cursor = p.jnl.Len()
	p.eng.tracer.Emit(trace.Event{
		Kind: trace.Primitive, PID: p.proc.PID(), Interval: cur.ID,
		Detail: "spawn " + child.PID().String(),
	})
	return child.PID()
}

// Record journals the value produced by f so that re-executions replay
// it instead of recomputing: the escape hatch for nondeterminism a body
// cannot avoid (clocks, randomness, external reads). f runs under the
// process lock and must not call Ctx methods.
func (c *Ctx) Record(f func() any) any {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	c.checkInterruptLocked()

	if c.replayingLocked() {
		e := c.expectLocked(journal.KindNote, "record")
		c.cursor++
		return e.Note
	}
	v := f()
	p.appendJournalLocked(&journal.Entry{Kind: journal.KindNote, Note: v})
	c.cursor = p.jnl.Len()
	return v
}

// Externalize runs f, an output action whose effects escape the HOPE
// system — a client print, an RPC response, a write to an external
// store — and so cannot be undone by rollback.
//
// With the stability watermark off (no Config.Stability) it is exact
// parity with calling f inline: f runs immediately, nothing is
// journalled, and a replayed body re-runs it. This is today's §4.9
// exposure, preserved verbatim for A/B comparison.
//
// With the watermark on, the call site is journalled (KindExtern) and f
// is withheld until the enclosing interval is definite AND the agreed
// stability frontier covers its epoch; Engine.FlushStable then releases
// it. Rolling back past the call site discards the withheld f. Release
// is exactly-once within an engine incarnation; across a crash the
// journal replays the call site, so an output released just before the
// crash may run again on recovery — at-least-once, like any external
// effect in a crash-recovery system (DESIGN.md §12).
func (c *Ctx) Externalize(f func()) {
	p := c.p
	st := p.eng.stability
	if st == nil {
		f()
		return
	}

	p.mu.Lock()
	c.checkInterruptLocked()

	var key externKey
	var epoch uint32
	if c.replayingLocked() {
		e := c.expectLocked(journal.KindExtern, "externalize")
		key = externKey{iid: e.Interval, idx: c.cursor}
		epoch = e.Interval.Epoch
		c.cursor++
		if _, done := p.externsDone[key]; done {
			p.mu.Unlock()
			return // already released in this incarnation
		}
		p.registerExternLocked(key, epoch, f)
	} else {
		cur := p.history.At(p.curIdx)
		key = externKey{iid: cur.ID, idx: p.jnl.Len()}
		epoch = cur.ID.Epoch
		p.appendJournalLocked(&journal.Entry{Kind: journal.KindExtern, Interval: cur.ID})
		c.cursor = p.jnl.Len()
		p.registerExternLocked(key, epoch, f)
		p.eng.tracer.Emit(trace.Event{
			Kind: trace.Primitive, PID: p.proc.PID(), Interval: cur.ID,
			Detail: "externalize (gated on watermark)",
		})
	}
	// A replayed call site can already be safe (definite and covered);
	// release it now rather than waiting for a frontier advance that may
	// never come in an idle system.
	rec := p.history.Get(key.iid)
	ready := rec != nil && rec.Definite && st.Covered(epoch)
	p.mu.Unlock()
	if ready {
		p.flushStable(st)
	}
}

// Yield is a rollback preemption point for long computations that make
// no other Ctx calls. It unwinds immediately if a rollback is pending.
func (c *Ctx) Yield() {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	c.checkInterruptLocked()
}

// Speculative reports whether the current interval still depends on any
// unresolved assumption.
func (c *Ctx) Speculative() bool {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	c.checkInterruptLocked()
	_, _, definite := c.basisLocked()
	return !definite
}

// Dependencies returns the current interval's live IDO set.
func (c *Ctx) Dependencies() []ids.AID {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	c.checkInterruptLocked()
	_, basis, _ := c.basisLocked()
	return basis
}
