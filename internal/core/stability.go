package core

import (
	"fmt"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/trace"
)

// Stability is the engine's hook into the global commit watermark
// (internal/stability.Tracker implements it; DESIGN.md §12). When
// Config.Stability is non-nil the engine runs in revocable-commit mode:
// intervals still finalize locally by the paper's wait-free rule, but a
// definite interval is irrevocable only once the agreed stability
// frontier covers its epoch — above the frontier, a Rollback or Revive
// reaching a definite interval un-finalizes it (the §4.9 premature
// commit is repaired instead of traced as a violation), and outputs
// registered through Ctx.Externalize are withheld until coverage.
type Stability interface {
	// Opened records the birth of a speculative interval.
	Opened(epoch uint32)
	// Issued records an interval definite at birth.
	Issued(epoch uint32)
	// Settled records a speculative interval finalizing or being
	// discarded by rollback.
	Settled(epoch uint32)
	// Revoked records the un-finalize of a definite interval.
	Revoked(epoch uint32)
	// Covered reports whether the agreed frontier covers a local epoch.
	// Coverage is monotone: once an epoch is covered, it and every lower
	// epoch stay covered.
	Covered(epoch uint32) bool
	// Emitted records the release of a gated output of the given epoch.
	Emitted(epoch uint32)
}

// Quiet reports whether the engine is locally quiescent: every mailbox
// frame handled and every user process parked. The stability agent
// samples it for sweep reports; unlike Settle it never waits. Its cost
// is O(live work): completed processes are not visited.
func (e *Engine) Quiet() bool { return e.quiet() }

// FlushStable runs every pending externalized output whose interval is
// definite and covered by the stability frontier, in journal order per
// process, and reaps every finished process the frontier now covers. The
// stability agent calls it after each frontier advance; it is a no-op
// when the watermark is off. Only processes withholding an output or
// waiting for coverage are visited.
func (e *Engine) FlushStable() {
	st := e.stability
	if st == nil {
		return
	}
	for _, p := range e.snapshot(e.holders) {
		p.flushStable(st)
	}
	for _, p := range e.snapshot(e.uncovered) {
		p.mu.Lock()
		p.trackLocked()
		p.mu.Unlock()
	}
}

// externKey identifies one Externalize call site: the interval it was
// emitted in plus its journal index. Interval IDs are never reused
// (epochs are allocated once), so the key stays unique even though
// journal indexes are reused after truncation.
type externKey struct {
	iid ids.IntervalID
	idx int
}

// externRec is one registered, not-yet-released output.
type externRec struct {
	key   externKey
	epoch uint32
	f     func()
}

// registerExternLocked records a pending output, replacing the closure
// if a replayed re-execution re-registers the same call site.
func (p *Process) registerExternLocked(key externKey, epoch uint32, f func()) {
	for i := range p.externs {
		if p.externs[i].key == key {
			p.externs[i].f = f
			return
		}
	}
	p.externs = append(p.externs, externRec{key: key, epoch: epoch, f: f})
	p.trackLocked()
}

// flushStable releases every pending output whose interval is definite
// and covered, in registration (journal) order. The closures run outside
// the process lock.
func (p *Process) flushStable(st Stability) {
	p.mu.Lock()
	if p.term {
		p.externs = nil
		p.trackLocked()
		p.mu.Unlock()
		return
	}
	var run []externRec
	kept := p.externs[:0]
	for _, x := range p.externs {
		r := p.history.Get(x.key.iid)
		if r != nil && r.Definite && st.Covered(x.epoch) {
			if p.externsDone == nil {
				p.externsDone = make(map[externKey]struct{})
			}
			p.externsDone[x.key] = struct{}{}
			run = append(run, x)
		} else {
			kept = append(kept, x)
		}
	}
	p.externs = kept
	p.trackLocked()
	p.mu.Unlock()
	for _, x := range run {
		x.f()
		st.Emitted(x.epoch)
		p.eng.tracer.Emit(trace.Event{
			Kind: trace.Info, PID: p.proc.PID(), Interval: x.key.iid,
			Detail: fmt.Sprintf("externalized output (journal index %d, epoch %d)", x.key.idx, x.epoch),
		})
	}
}

// dropExternsLocked discards pending outputs at or past a journal
// truncation point: their call sites were rolled back. Already-released
// outputs are never truncated — a released output is covered, coverage
// is downward closed along a history, and covered intervals cannot be
// rolled back.
func (p *Process) dropExternsLocked(fromIdx int) {
	if len(p.externs) == 0 {
		return
	}
	kept := p.externs[:0]
	for _, x := range p.externs {
		if x.key.idx < fromIdx {
			kept = append(kept, x)
		}
	}
	p.externs = kept
	p.trackLocked()
}
