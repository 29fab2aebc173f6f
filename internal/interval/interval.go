// Package interval implements the interval records of a HOPE user
// process's execution history and the Control state machine that applies
// Replace and Rollback messages to them (paper Figures 9–10), in both
// variants: Algorithm 1 (§5.2) and Algorithm 2 with UDO-based dependency
// cycle detection (§5.3, Figure 15).
package interval

import (
	"fmt"
	"slices"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/sets"
)

// Algorithm selects the Control variant.
type Algorithm int

const (
	// Algorithm1 is the basic algorithm of §5.2. It satisfies Theorem 5.1
	// only for acyclic dependency graphs: intervals caught in a cycle of
	// mutually speculative affirms "bounce around" it forever.
	Algorithm1 Algorithm = iota + 1
	// Algorithm2 extends Algorithm1 with the UDO (Used-to-Depend-On) set
	// of Figure 15, detecting and cutting dependency cycles (§5.3).
	Algorithm2
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Algorithm1:
		return "algorithm1"
	case Algorithm2:
		return "algorithm2"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// OpenKind records how an interval began.
type OpenKind int

const (
	// Root is a process's initial interval. If the process was spawned by
	// a speculative parent, the root interval is itself speculative and
	// its rollback terminates the process.
	Root OpenKind = iota + 1
	// Guessed marks an interval opened by an explicit guess primitive.
	Guessed
	// Implicit marks an interval opened by receiving a message whose tag
	// introduced new dependencies (the paper's implicit guesses).
	Implicit
)

// String implements fmt.Stringer.
func (k OpenKind) String() string {
	switch k {
	case Root:
		return "root"
	case Guessed:
		return "guess"
	case Implicit:
		return "implicit"
	default:
		return fmt.Sprintf("openkind(%d)", int(k))
	}
}

// Record is one interval in a process history with its dependency sets.
type Record struct {
	ID   ids.IntervalID
	Kind OpenKind

	// GuessAID is the explicitly guessed assumption (Kind == Guessed).
	GuessAID ids.AID

	// IDO is the live I-Depend-On set. Empty ⇒ the interval can finalize.
	IDO *sets.AIDSet
	// UDO is the Used-to-Depend-On set (Algorithm 2 only).
	UDO *sets.AIDSet
	// Cut holds UDO-based cycle cuts awaiting confirmation from the cut
	// AID's process (see msg.KindCutProbe): a genuine ring member acks
	// and the cut retires; a retracted chain revives the dependency
	// instead. The interval cannot finalize while cuts are pending.
	Cut *sets.AIDSet
	// IHA is the I-Have-Affirmed set of AIDs speculatively affirmed in
	// this interval.
	IHA *sets.AIDSet
	// IHD is the I-Have-Denied set of AIDs denied within this interval.
	// Immediate denies (Table 1) are recorded here after being sent;
	// deferred denies (footnote 1) are buffered here and fire at
	// finalize per Figure 11 — firing is idempotent at the AID, so
	// finalize re-asserts all of them. Rollback drops the set, revoking
	// unfired deferred denies.
	IHD *sets.AIDSet

	// JournalIndex is the index of the journal entry that opened this
	// interval; rollback truncates the journal here.
	JournalIndex int

	// Definite is set by finalize; a definite interval can no longer be
	// rolled back.
	Definite bool

	// affirmed lists the UDO members this interval saw affirmed: retired
	// by an empty Replace, which an AID machine sends only from True.
	// Under Control.TrueFinal a later UDO hit on one of them is
	// discharged without a cut (DESIGN.md §4.9). It stays a subset of UDO
	// disjoint from Cut, holds one or two AIDs in practice (nil until
	// used), and is deliberately not persisted: a restored record probes.
	affirmed []ids.AID
}

// NewRecord returns an interval record with empty dependency sets.
func NewRecord(id ids.IntervalID, kind OpenKind, journalIndex int) *Record {
	return &Record{
		ID:           id,
		Kind:         kind,
		IDO:          sets.NewAIDSet(),
		UDO:          sets.NewAIDSet(),
		Cut:          sets.NewAIDSet(),
		IHA:          sets.NewAIDSet(),
		IHD:          sets.NewAIDSet(),
		JournalIndex: journalIndex,
	}
}

// Speculative reports whether the interval can still be rolled back.
func (r *Record) Speculative() bool { return !r.Definite }

// String implements fmt.Stringer.
func (r *Record) String() string {
	state := "speculative"
	if r.Definite {
		state = "definite"
	}
	return fmt.Sprintf("%s(%s,%s,ido=%s)", r.ID, r.Kind, state, r.IDO)
}

// ReplaceResult is the outcome of applying a Replace message.
type ReplaceResult struct {
	// NewDeps are the AIDs newly added to the interval's IDO; the engine
	// must send a Guess registration to each (Figure 10: "Control
	// completes the DOM addition by sending Guess messages").
	NewDeps []ids.AID
	// Finalize reports that the interval became finalizable (empty IDO
	// and no unconfirmed cuts).
	Finalize bool
	// NewCuts are the replacement AIDs discarded because they were found
	// in UDO (Algorithm 2 cycle detection); each needs a CutProbe sent
	// and must be confirmed before the interval can finalize.
	NewCuts []ids.AID
}

// Control is the Replace handling an engine runs: the algorithm variant
// and whether an AID's True verdict is absorbing.
type Control struct {
	Alg Algorithm
	// TrueFinal reports that True is absorbing, as it is without the
	// commit watermark (DESIGN.md §12). A UDO member the interval saw
	// affirmed is then True for good, so the cut a later Replace would
	// take on it is discharged in place: its CutProbe could only be
	// answered CutAck (DESIGN.md §4.9).
	TrueFinal bool
}

// ApplyReplace applies a Replace message — "replace AID from with set
// repl in this interval's IDO" — under the given algorithm, mutating rec
// and returning the follow-up work. Every UDO hit is cut and must be
// confirmed, which is correct whether or not True is absorbing; an
// engine that knows it is uses Control.Replace.
func ApplyReplace(alg Algorithm, rec *Record, from ids.AID, repl []ids.AID) ReplaceResult {
	return Control{Alg: alg}.Replace(rec, from, repl)
}

// Replace is ApplyReplace under c. Callers must already have checked
// that rec is live and speculative.
//
// Algorithm 1 follows Figure 10; Algorithm 2 follows Figure 15, whose
// loop is equivalent to: discard replacements found in UDO, add the rest,
// then retire the sender into UDO.
func (c Control) Replace(rec *Record, from ids.AID, repl []ids.AID) ReplaceResult {
	var res ReplaceResult
	for _, y := range repl {
		if y == from {
			// Self-replacement: from appears in its own replacement set,
			// which happens when an assumption was affirmed conditionally
			// on itself (a dependency 1-cycle). Consistent with Algorithm
			// 2's rule that a dependency ring commits as true when cut,
			// the self-condition is discharged: from is removed below and
			// must not re-enter IDO (or NewDeps) here.
			continue
		}
		if c.Alg == Algorithm2 && rec.UDO.Contains(y) {
			// This interval already depended on y once and was told to
			// stop: y appears to be part of a dependency cycle. Discard
			// it provisionally — the cut must be confirmed by y's
			// process before it can support finalization, because the
			// UDO entry may be stale (the chain that replaced y away
			// may since have been retracted; see DESIGN.md §4) — unless
			// y was affirmed here and True is absorbing.
			if c.TrueFinal && slices.Contains(rec.affirmed, y) {
				continue
			}
			rec.forget(y) // the probe, not the record, settles y now
			if rec.Cut.Add(y) {
				res.NewCuts = append(res.NewCuts, y)
			}
			continue
		}
		if rec.IDO.Add(y) {
			res.NewDeps = append(res.NewDeps, y)
		}
	}
	rec.IDO.Remove(from)
	if c.Alg == Algorithm2 {
		rec.UDO.Add(from)
		if len(repl) == 0 {
			c.noteAffirmed(rec, from)
		}
	}
	res.Finalize = rec.Finalizable()
	return res
}

// noteAffirmed records that a, just retired into UDO by an empty Replace,
// is True: only a True machine sends one. A cut of a still awaiting its
// CutAck is discharged now if True is absorbing; otherwise the probe in
// flight settles it and nothing is recorded.
func (c Control) noteAffirmed(rec *Record, a ids.AID) {
	if rec.Cut.Contains(a) {
		if !c.TrueFinal {
			return
		}
		rec.Cut.Remove(a)
	}
	if !slices.Contains(rec.affirmed, a) {
		rec.affirmed = append(rec.affirmed, a)
	}
}

// Revive re-establishes a direct dependency on a (msg.KindRevive):
// whatever resolution of it the interval performed — UDO retirement, a
// pending cut, the affirmed record — came through a voided chain. It
// reports whether a joined IDO, i.e. whether a Guess registration is
// owed.
func (r *Record) Revive(a ids.AID) bool {
	r.UDO.Remove(a)
	r.Cut.Remove(a)
	r.forget(a)
	return r.IDO.Add(a)
}

// forget drops a from the affirmed list.
func (r *Record) forget(a ids.AID) {
	if i := slices.Index(r.affirmed, a); i >= 0 {
		r.affirmed = slices.Delete(r.affirmed, i, i+1)
	}
}

// Affirmed returns a copy of the UDO members this interval saw affirmed.
func (r *Record) Affirmed() []ids.AID { return slices.Clone(r.affirmed) }

// Finalizable reports whether the interval may become definite: no live
// dependencies and no unconfirmed cycle cuts.
func (r *Record) Finalizable() bool {
	return r.IDO.Empty() && r.Cut.Empty()
}

// History is a process's ordered interval sequence.
type History struct {
	records []*Record
	index   map[ids.IntervalID]int
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{index: make(map[ids.IntervalID]int)}
}

// Append adds a record at the end of the history.
func (h *History) Append(r *Record) {
	h.index[r.ID] = len(h.records)
	h.records = append(h.records, r)
}

// Get returns the live record with the given ID (epoch included), or nil
// if the interval is not (or no longer) in the history — the paper's
// "if target ∈ history" guard.
func (h *History) Get(id ids.IntervalID) *Record {
	i, ok := h.index[id]
	if !ok {
		return nil
	}
	return h.records[i]
}

// Position returns the history index of id, or -1.
func (h *History) Position(id ids.IntervalID) int {
	i, ok := h.index[id]
	if !ok {
		return -1
	}
	return i
}

// Last returns the newest interval, or nil if the history is empty.
func (h *History) Last() *Record {
	if len(h.records) == 0 {
		return nil
	}
	return h.records[len(h.records)-1]
}

// Len returns the number of live intervals.
func (h *History) Len() int { return len(h.records) }

// At returns the record at history position i.
func (h *History) At(i int) *Record { return h.records[i] }

// Slice returns the records oldest-first. Callers must not mutate the
// returned slice's order but may inspect records.
func (h *History) Slice() []*Record {
	out := make([]*Record, len(h.records))
	copy(out, h.records)
	return out
}

// TruncateFrom removes the record at position i and everything after it,
// returning the removed records oldest-first.
func (h *History) TruncateFrom(i int) []*Record {
	if i < 0 || i >= len(h.records) {
		return nil
	}
	removed := make([]*Record, len(h.records)-i)
	copy(removed, h.records[i:])
	for _, r := range removed {
		delete(h.index, r.ID)
	}
	h.records = h.records[:i]
	return removed
}

// AllDefinite reports whether every interval in the history is definite.
func (h *History) AllDefinite() bool {
	for _, r := range h.records {
		if !r.Definite {
			return false
		}
	}
	return true
}
