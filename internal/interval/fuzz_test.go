package interval

// Fuzz targets for the Control bookkeeping. The fuzzer drives random
// Replace streams through ApplyReplace and checks the structural
// invariants that the engine's correctness rests on.

import (
	"slices"
	"testing"

	"github.com/hope-dist/hope/internal/ids"
)

// replaceOp is one decoded fuzz operation: Replace(from → repl), or a
// Revive of from.
type replaceOp struct {
	from   ids.AID
	repl   []ids.AID
	revive bool
}

// decodeReplaceStream turns fuzz bytes into a sequence of operations over
// a small AID universe. Each operation consumes one header byte (from-AID,
// replacement count; a header ≥ 208 is a Revive instead) plus one byte
// per replacement.
func decodeReplaceStream(data []byte) (ops []replaceOp) {
	const universe = 13
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		from := ids.AID(h%universe) + 1
		if h >= 208 {
			ops = append(ops, replaceOp{from: from, revive: true})
			continue
		}
		n := int(h/universe) % 4
		if n > len(data) {
			n = len(data)
		}
		repl := make([]ids.AID, 0, n)
		for _, b := range data[:n] {
			repl = append(repl, ids.AID(b%universe)+1)
		}
		data = data[n:]
		ops = append(ops, replaceOp{from: from, repl: repl})
	}
	return ops
}

// FuzzApplyReplace checks, for arbitrary Replace/Revive streams, both
// algorithms, and True revocable or absorbing:
//
//   - IDO, UDO and Cut stay pairwise disjoint (an assumption is depended
//     on, retired, or provisionally cut — never two at once);
//   - the affirmed list is a duplicate-free subset of UDO, hence disjoint
//     from IDO, and disjoint from Cut;
//   - Finalize is reported exactly when IDO and Cut are empty;
//   - NewDeps are exactly the AIDs that joined IDO, and NewCuts the ones
//     that joined Cut;
//   - under Algorithm 1 the UDO and Cut sets stay empty.
func FuzzApplyReplace(f *testing.F) {
	f.Add([]byte{0x01})
	f.Add([]byte{0x30, 0x05, 0x07, 0x1a, 0x30, 0x05})
	f.Add([]byte{0xff, 0x00, 0x00, 0x00, 0x81, 0x44})
	// 1→∅, 2→{1} (a UDO hit on an affirmed member), revive 1, 3→{1}.
	f.Add([]byte{0x00, 0x0e, 0x00, 0xd0, 0x0f, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ctl := range []Control{{Alg: Algorithm1}, {Alg: Algorithm2}, {Alg: Algorithm2, TrueFinal: true}} {
			alg := ctl.Alg
			rec := NewRecord(ids.IntervalID{Proc: 1, Seq: 1, Epoch: 1}, Guessed, 0)
			// Seed a plausible starting IDO so Replaces have targets.
			rec.IDO.Add(1)
			rec.IDO.Add(2)
			rec.IDO.Add(3)

			for _, op := range decodeReplaceStream(data) {
				if op.revive {
					rec.Revive(op.from)
					if !rec.IDO.Contains(op.from) || rec.UDO.Contains(op.from) ||
						rec.Cut.Contains(op.from) || slices.Contains(rec.affirmed, op.from) {
						t.Fatalf("revive of %v left IDO=%s UDO=%s Cut=%s affirmed=%v",
							op.from, rec.IDO, rec.UDO, rec.Cut, rec.affirmed)
					}
					continue
				}
				before := rec.IDO.Clone()
				beforeCut := rec.Cut.Clone()

				res := ctl.Replace(rec, op.from, op.repl)

				if alg == Algorithm1 {
					if !rec.UDO.Empty() || !rec.Cut.Empty() || rec.affirmed != nil {
						t.Fatalf("algorithm 1 grew UDO=%s Cut=%s affirmed=%v", rec.UDO, rec.Cut, rec.affirmed)
					}
				}
				for i, a := range rec.affirmed {
					if !rec.UDO.Contains(a) || rec.Cut.Contains(a) || slices.Contains(rec.affirmed[i+1:], a) {
						t.Fatalf("affirmed %v with UDO=%s Cut=%s", rec.affirmed, rec.UDO, rec.Cut)
					}
				}
				if len(op.repl) == 0 && alg == Algorithm2 && !rec.Cut.Contains(op.from) &&
					!slices.Contains(rec.affirmed, op.from) {
					t.Fatalf("%v retired by an empty Replace not recorded affirmed", op.from)
				}
				for _, a := range rec.IDO.Slice() {
					if rec.UDO.Contains(a) {
						t.Fatalf("%v in both IDO and UDO", a)
					}
					if rec.Cut.Contains(a) {
						t.Fatalf("%v in both IDO and Cut", a)
					}
				}
				if res.Finalize != (rec.IDO.Empty() && rec.Cut.Empty()) {
					t.Fatalf("Finalize=%v with IDO=%s Cut=%s", res.Finalize, rec.IDO, rec.Cut)
				}
				for _, a := range res.NewDeps {
					if !rec.IDO.Contains(a) {
						t.Fatalf("NewDeps reported %v not in IDO", a)
					}
					if before.Contains(a) {
						t.Fatalf("NewDeps reported pre-existing dep %v", a)
					}
				}
				for _, a := range res.NewCuts {
					if !rec.Cut.Contains(a) {
						t.Fatalf("NewCuts reported %v not in Cut", a)
					}
					if beforeCut.Contains(a) {
						t.Fatalf("NewCuts reported pre-existing cut %v", a)
					}
				}
				if rec.IDO.Contains(op.from) {
					t.Fatalf("replaced AID %v still in IDO", op.from)
				}
				for _, y := range res.NewDeps {
					if y == op.from {
						t.Fatalf("self-replacement of %v reported as a new dep", op.from)
					}
				}
			}
		}
	})
}

// FuzzHistoryTruncate checks that TruncateFrom keeps the index map and
// record slice consistent under arbitrary append/truncate interleavings.
func FuzzHistoryTruncate(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0})
	f.Add([]byte{0x10, 0x20, 0x90})

	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewHistory()
		var next uint32
		var live []ids.IntervalID
		for _, b := range data {
			if b < 0x80 {
				next++
				id := ids.IntervalID{Proc: 7, Seq: next, Epoch: 1}
				h.Append(NewRecord(id, Implicit, int(next)))
				live = append(live, id)
				continue
			}
			if len(live) == 0 {
				if h.TruncateFrom(0) != nil {
					t.Fatal("truncating an empty history returned records")
				}
				continue
			}
			i := int(b-0x80) % len(live)
			removed := h.TruncateFrom(i)
			if len(removed) != len(live)-i {
				t.Fatalf("removed %d records, want %d", len(removed), len(live)-i)
			}
			live = live[:i]
		}
		if h.Len() != len(live) {
			t.Fatalf("Len=%d, want %d", h.Len(), len(live))
		}
		for i, id := range live {
			if h.Position(id) != i {
				t.Fatalf("Position(%v)=%d, want %d", id, h.Position(id), i)
			}
			if h.At(i).ID != id {
				t.Fatalf("At(%d)=%v, want %v", i, h.At(i).ID, id)
			}
		}
		if next > 0 {
			gone := ids.IntervalID{Proc: 7, Seq: next + 1, Epoch: 1}
			if h.Get(gone) != nil {
				t.Fatal("Get invented a record")
			}
		}
	})
}
