package core

import (
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
)

// Persister is the write-ahead-log surface the engine calls so user
// processes can be rebuilt after a crash. It is implemented by
// internal/durable; core itself never touches disk. A nil Persister (the
// default) disables persistence.
//
// Every method except Consumed is invoked with the owning process's lock
// held, so implementations see mutations in program order and must treat
// their own locking as a leaf (never call back into the engine).
// Arguments that alias live state (journal entries, interval records) are
// only safe to read during the call — encode, don't retain.
type Persister interface {
	// JournalAppend records one appended journal entry. Entries are
	// recorded in order; a Rollback implies truncation of every entry at
	// or beyond the rolled-back interval's JournalIndex.
	JournalAppend(pid ids.PID, e *journal.Entry)
	// IntervalOpen records a freshly opened interval (before its Guess
	// registrations are sent).
	IntervalOpen(pid ids.PID, rec *interval.Record)
	// IntervalState re-records an interval's dependency sets after a
	// mutation (Replace application, cut retirement, revive, or a
	// speculative affirm/deny buffering into IHA/IHD).
	IntervalState(pid ids.PID, rec *interval.Record)
	// IntervalFinalize records that the interval became definite.
	IntervalFinalize(pid ids.PID, iid ids.IntervalID)
	// Rollback records that iid and everything after it was discarded
	// (history truncated from iid, journal truncated to iid's
	// JournalIndex). Rolling back the root terminates the process.
	Rollback(pid ids.PID, iid ids.IntervalID)
	// DeadAID records an assumption the process learned is denied.
	DeadAID(pid ids.PID, a ids.AID)
	// Compact records a compaction: the journal is emptied, every
	// interval but iid is dropped (its JournalIndex rebased to 0), and
	// base becomes the re-execution snapshot. An error aborts the
	// compaction (typically: the snapshot is not encodable).
	Compact(pid ids.PID, iid ids.IntervalID, base any) error
	// AutoDenied records that the liveness layer denied assumption a —
	// its owner was declared dead or its lease expired. Engine-level:
	// there is no owning local process, so unlike the hooks above it is
	// called without any process lock. Recovery surfaces the set via
	// durable.Recovered.Denied → Config.Denied, so a restart cannot
	// resurrect the orphaned speculation.
	AutoDenied(a ids.AID)
	// MessageConsumed records that a remote-origin message (SrcSeq != 0)
	// was discarded without entering any journal — dead letters,
	// denied-tag drops, purges — so recovery stops re-delivering it.
	// Unlike the other hooks it may be called without the process lock.
	// (Named to coexist with wire.DurableHooks' frame-level Consumed on a
	// single implementing type.)
	MessageConsumed(m *msg.Message)
}

// ProcExporter is an optional Persister extension: a self-contained
// snapshot of one process's replay state as a single record. The engine
// writes it only at adoption (AdoptProcesses), under the reborn PID, so
// the adopter's own restart can rebuild a process whose history lives in
// a dead node's WAL. An error means the snapshot did not reach the log,
// which is fatal for the hand-off.
type ProcExporter interface {
	ProcExport(pid ids.PID, snap *Restored) error
}

// TransplantRecorder is an optional Persister extension recording that
// this node adopted oldPid off dead node from, reincarnating it as
// newPid. It is the hand-off's commit record: written after the
// ProcExporter snapshot and durable, with everything before it, when it
// returns — before the reborn process spawns or is announced — so a
// crash mid-transplant recovers the adoption
// (durable.Recovered.Transplants) instead of losing the process a
// second time.
type TransplantRecorder interface {
	TransplantRecorded(from int, oldPid, newPid ids.PID) error
}

// Restored is the recovered pre-crash state of one user process, injected
// through Config.Restore and consumed by the first spawn that draws the
// matching PID. Spawn order (and therefore PID assignment) must be
// deterministic across restarts for restoration to attach to the right
// process — vpm allocates PIDs sequentially, so a node that spawns the
// same roots in the same order gets the same PIDs.
type Restored struct {
	// Intervals is the interval history, oldest first.
	Intervals []RestoredInterval
	// Entries is the replay journal.
	Entries []*journal.Entry
	// Dead lists assumptions known denied.
	Dead []ids.AID
	// Base/HasBase carry the latest compaction snapshot.
	Base    any
	HasBase bool
	// NextSeq is the next interval sequence number to allocate.
	NextSeq uint32
	// MaxEpoch is the highest interval epoch the pre-crash engine ever
	// issued for this process, including intervals rolled back before the
	// crash (which Intervals no longer lists). The new engine's epoch
	// allocator skips past it so stale control messages stay detectable.
	MaxEpoch uint32
	// Terminated marks a process whose speculative root was rolled back
	// before the crash; it is restored directly into the dead state.
	Terminated bool
	// Transplant marks state extracted from a DEAD FOREIGN node's WAL
	// (set only by Engine.AdoptProcesses, never by the local-recovery
	// fold). An ordinary restart trusts its speculative intervals and
	// re-fires their registrations; a transplant cannot — the corpse may
	// have executed past the replay frontier without logging, so
	// restoreLocked rolls the speculative suffix back and re-runs it.
	Transplant bool
}

// RestoredInterval is one interval record in flat (set-free) form.
type RestoredInterval struct {
	ID           ids.IntervalID
	Kind         interval.OpenKind
	JournalIndex int
	GuessAID     ids.AID
	Definite     bool
	IDO          []ids.AID
	UDO          []ids.AID
	Cut          []ids.AID
	IHA          []ids.AID
	IHD          []ids.AID
}

// takeRestored claims (and removes) the restored state for pid, if any.
func (e *Engine) takeRestored(pid ids.PID) *Restored {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.restore[pid]
	if r != nil {
		delete(e.restore, pid)
	}
	return r
}

// Process-side persistence helpers. All of them tolerate a nil Persister
// so the hot paths stay branch-cheap when durability is off.

func (p *Process) appendJournalLocked(e *journal.Entry) {
	p.jnl.Append(e)
	if per := p.eng.persist; per != nil {
		per.JournalAppend(p.proc.PID(), e)
	}
}

func (p *Process) persistIntervalOpen(rec *interval.Record) {
	if per := p.eng.persist; per != nil {
		per.IntervalOpen(p.proc.PID(), rec)
	}
}

func (p *Process) persistIntervalState(rec *interval.Record) {
	if per := p.eng.persist; per != nil {
		per.IntervalState(p.proc.PID(), rec)
	}
}

func (p *Process) persistFinalize(iid ids.IntervalID) {
	if per := p.eng.persist; per != nil {
		per.IntervalFinalize(p.proc.PID(), iid)
	}
}

func (p *Process) persistRollback(iid ids.IntervalID) {
	if per := p.eng.persist; per != nil {
		per.Rollback(p.proc.PID(), iid)
	}
}

func (p *Process) persistDeadAID(a ids.AID) {
	if per := p.eng.persist; per != nil {
		per.DeadAID(p.proc.PID(), a)
	}
}

// persistConsumed marks a remote-origin message as consumed-without-
// journal. Local messages (SrcSeq == 0) have no WAL identity to retire.
func (e *Engine) persistConsumed(m *msg.Message) {
	if per := e.persist; per != nil && m.SrcSeq != 0 {
		per.MessageConsumed(m)
	}
}
