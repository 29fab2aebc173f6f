package core

import (
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
)

// This file implements process reaping — Time Warp's fossil collection
// applied to HOPE user processes (DESIGN.md §4 item 11). A process that
// can no longer act on its own and that no frame can revoke is dropped
// from the engine: its runner and dispatch goroutines exit, and the
// engine, the vpm machine and the live-work sets forget it. What stays is
// a tombstone — one engine-wide transport handler plus the epochs of the
// reaped process's surviving intervals — which gives every later frame
// addressed to the PID the verdict the live process would have given.
// PIDs are never re-issued (vpm.Machine.AllocPID), so a tombstone never
// answers for a different process.

// tombRef locates one reaped process's surviving interval epochs in the
// engine's shared epoch arena.
type tombRef struct{ off, n uint32 }

// settledLocked reports whether p is finished: terminated, or complete
// with no re-execution pending, every interval definite and no
// Externalize output withheld. covered reports whether, in addition, the
// stability frontier covers every interval (always, with the watermark
// off). A history's epochs grow oldest to newest and coverage is monotone
// (Stability), so the newest interval decides. A finished, covered
// process can no longer act or be revoked.
func (p *Process) settledLocked() (settled, covered bool) {
	if p.term {
		return true, true
	}
	if !p.complete || p.pending || len(p.externs) > 0 || !p.history.AllDefinite() {
		return false, false
	}
	if st, last := p.eng.stability, p.history.Last(); st != nil && last != nil && !st.Covered(last.ID.Epoch) {
		return true, false
	}
	return true, true
}

// reapLocked drops p from the engine. The tombstone is installed before
// the vpm proc is retired, so a frame that misses the mailbox finds it.
// Lock order under p.mu: tmu, then the vpm machine and the transport's
// handler table (Retire), then Engine.mu, then lmu.
func (p *Process) reapLocked() {
	p.reaped = true
	e := p.eng
	pid := p.proc.PID()

	e.tmu.Lock()
	ref := tombRef{off: uint32(len(e.tombEpochs))}
	if !p.term {
		for i := 0; i < p.history.Len(); i++ {
			e.tombEpochs = append(e.tombEpochs, p.history.At(i).ID.Epoch)
		}
	}
	ref.n = uint32(len(e.tombEpochs)) - ref.off
	e.tombs[pid] = ref
	e.tmu.Unlock()

	p.proc.Retire(e.tombHandler)
	p.stopOnce.Do(func() { close(p.stopCh) })
	// Data still queued for the body will never be received.
	p.dataQ.Purge(func(m *msg.Message) bool {
		e.persistConsumed(m)
		return true
	})

	e.mu.Lock()
	delete(e.procs, pid)
	e.mu.Unlock()
	if p.uncovered {
		p.uncovered = false
		e.mark(e.uncovered, p, false)
	}
}

// tombstone is the transport handler of every reaped PID. It gives each
// frame the verdict the live process would have given: a Rollback or
// Revive aimed at a surviving interval is a violation (the interval was
// definite, and covered with the watermark on); one aimed at a discarded
// interval is stale and dropped, as are Replace, CutAck and Data; any
// other kind is the dispatch loop's "user process received" violation.
// Every frame is retired in the WAL, as dispatch retires it.
func (e *Engine) tombstone(m *msg.Message) {
	switch m.Kind {
	case msg.KindRollback:
		if e.survives(m.To, m.IID) {
			e.tracer.Emit(trace.Event{
				Kind: trace.Violation, PID: m.To, Interval: m.IID, AID: m.AID,
				Detail: "rollback of definite interval (conflicting affirm/deny upstream)",
			})
		}
	case msg.KindRevive:
		if e.survives(m.To, m.IID) {
			e.tracer.Emit(trace.Event{
				Kind: trace.Violation, PID: m.To, Interval: m.IID, AID: m.AID,
				Detail: "revive of definite interval: premature commit through a retracted chain",
			})
		}
	case msg.KindData, msg.KindReplace, msg.KindCutAck:
	default:
		e.tracer.Emit(trace.Event{
			Kind: trace.Violation, PID: m.To,
			Detail: "user process received " + m.Kind.String(),
		})
	}
	e.persistConsumed(m)
}

// survives reports whether iid was in reaped process pid's history when
// it was reaped. Epochs are never reused within a process's history, so
// the epoch alone identifies the interval.
func (e *Engine) survives(pid ids.PID, iid ids.IntervalID) bool {
	e.tmu.RLock()
	defer e.tmu.RUnlock()
	ref, ok := e.tombs[pid]
	if !ok {
		return false
	}
	for _, ep := range e.tombEpochs[ref.off : ref.off+ref.n] {
		if ep == iid.Epoch {
			return true
		}
	}
	return false
}
