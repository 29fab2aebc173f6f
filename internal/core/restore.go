package core

import (
	"fmt"

	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
)

// restoreLocked rebuilds this process from recovered pre-crash state
// instead of opening a fresh root interval. Called from bind with p.mu
// held, before the runner or dispatch goroutines start.
//
// Reconstruction re-installs the interval history, replay journal, dead
// set, and compaction base verbatim, then re-fires the control-plane
// sends whose loss a crash cannot otherwise repair: registrations and
// finalize fan-out are not journalled, and under group commit a send may
// die in the gap between its interval mutation reaching the WAL and its
// wire frame doing so. Re-firing is safe because every control message is
// idempotent at its AID (Guess re-adds to DOM, a duplicate unconditional
// Affirm/Deny of a resolved AID is ignored), and bounded because
// compaction keeps restored histories short.
//
// None of these re-fires are persisted as interval records again — the
// WAL already holds this state; only the outbound frames (FrameQueued)
// are logged, as for any send.
//
// A process transplanted off a dead node (r.Transplant) trusts only the
// definite prefix of its history: those outcomes were durable on the
// corpse and externally visible. Its speculative suffix is NOT trusted:
// the corpse may have executed arbitrarily far past the last logged
// journal entry, so re-firing its registrations and resuming
// mid-interval could split the timeline (the corpse's sends exist in the
// world but not in our journal). Instead the suffix is rolled back
// through the live rollback machinery — which retracts its
// registrations, denies the assumptions it minted, and requeues its
// surviving receives — and re-run from the replay frontier. The one
// interval that cannot be rolled back is a speculative ROOT: rolling
// back a root terminates the process (§ rollbackLocked). A speculative
// root is the replay frontier by definition — nothing before it exists —
// so it is trusted like an ordinary restart's.
func (p *Process) restoreLocked(r *Restored) {
	pid := p.proc.PID()
	for _, ri := range r.Intervals {
		rec := interval.NewRecord(ri.ID, ri.Kind, ri.JournalIndex)
		rec.GuessAID = ri.GuessAID
		rec.Definite = ri.Definite
		for _, a := range ri.IDO {
			rec.IDO.Add(a)
		}
		for _, a := range ri.UDO {
			rec.UDO.Add(a)
		}
		for _, a := range ri.Cut {
			rec.Cut.Add(a)
		}
		for _, a := range ri.IHA {
			rec.IHA.Add(a)
		}
		for _, a := range ri.IHD {
			rec.IHD.Add(a)
		}
		p.history.Append(rec)
		if st := p.eng.stability; st != nil {
			// Feed the watermark tracker: a restored definite interval is
			// already settled (Issued bumps events and the epoch high-water
			// mark only); a speculative one is live again and must hold the
			// frontier back until it resolves.
			if rec.Definite {
				st.Issued(rec.ID.Epoch)
			} else {
				st.Opened(rec.ID.Epoch)
			}
		}
	}
	for _, e := range r.Entries {
		p.jnl.Append(e)
	}
	for _, a := range r.Dead {
		p.dead.Add(a)
	}
	p.base, p.hasBase = r.Base, r.HasBase
	p.seq = r.NextSeq
	p.curIdx = p.history.Len() - 1

	// One resume pass. A definite interval's finalize fan-out may have
	// been cut short by the crash; repeat it (dependents that already
	// saw it ignore the copy). A speculative one re-fires its
	// registrations, unless a transplant rolls it back (above).
	for i, rec := range p.history.Slice() {
		if rec.Definite {
			for _, y := range rec.IHA.Slice() {
				p.proc.Send(msg.Affirm(pid, rec.ID, y, nil))
			}
			for _, y := range rec.IHD.Slice() {
				p.proc.Send(msg.Deny(pid, rec.ID, y))
			}
			continue
		}
		if r.Transplant && i > 0 {
			p.eng.tracer.Emit(trace.Event{
				Kind: trace.Rollback, PID: pid, Interval: rec.ID,
				Detail: "transplant: rolling back speculative suffix above the replay frontier",
			})
			p.rollbackLocked(rec)
			break
		}
		for _, a := range rec.IDO.Slice() {
			p.proc.Send(msg.Guess(pid, rec.ID, a))
		}
		for _, a := range rec.Cut.Slice() {
			p.proc.Send(msg.CutProbe(pid, rec.ID, a))
		}
		if rec.Finalizable() {
			// The interval emptied its IDO before the crash but the
			// finalize marker never reached the WAL: finish the job.
			p.finalizeLocked(rec)
		}
	}

	p.eng.tracer.Emit(trace.Event{
		Kind: trace.Restart, PID: pid,
		Detail: fmt.Sprintf("restored from WAL: %d intervals, %d journal entries, %d dead AIDs, base=%v",
			p.history.Len(), p.jnl.Len(), p.dead.Len(), p.hasBase),
	})

	if r.Terminated {
		if p.runErr == nil {
			p.runErr = ErrTerminated
		}
		p.terminateLocked()
	}
}
