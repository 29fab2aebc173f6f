package sets

// Fuzz targets cross-checking AIDSet and IntervalSet against a reference
// model (map + insertion-order slice). The set underpins every dependency-tracking
// decision in the engine, so its order-preserving semantics must hold for
// arbitrary operation streams.

import (
	"testing"

	"github.com/hope-dist/hope/internal/ids"
)

// refSet is the obvious (slow) model of an insertion-ordered set.
type refSet[T comparable] struct {
	present map[T]bool
	order   []T
}

func newRefSet[T comparable]() *refSet[T] { return &refSet[T]{present: make(map[T]bool)} }

func (r *refSet[T]) add(a T) bool {
	if r.present[a] {
		return false
	}
	r.present[a] = true
	r.order = append(r.order, a)
	return true
}

func (r *refSet[T]) remove(a T) bool {
	if !r.present[a] {
		return false
	}
	delete(r.present, a)
	for i, x := range r.order {
		if x == a {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

// FuzzAIDSetModel interprets each input byte as an operation on a small
// AID universe and checks AIDSet against the model after every step.
func FuzzAIDSetModel(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x00, 0x81, 0xc0})
	f.Add([]byte{0x01, 0x02, 0x03, 0x82, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewAIDSet()
		ref := newRefSet[ids.AID]()
		for _, b := range data {
			a := ids.AID(b&0x0f) + 1
			switch {
			case b&0xc0 == 0x80:
				if got, want := s.Remove(a), ref.remove(a); got != want {
					t.Fatalf("Remove(%v)=%v, model says %v", a, got, want)
				}
			case b&0xc0 == 0xc0:
				s.Clear()
				ref = newRefSet[ids.AID]()
			default:
				if got, want := s.Add(a), ref.add(a); got != want {
					t.Fatalf("Add(%v)=%v, model says %v", a, got, want)
				}
			}

			if s.Len() != len(ref.order) {
				t.Fatalf("Len=%d, model has %d", s.Len(), len(ref.order))
			}
			got := s.Slice()
			for i, want := range ref.order {
				if got[i] != want {
					t.Fatalf("Slice[%d]=%v, model says %v (got %v, want %v)",
						i, got[i], want, got, ref.order)
				}
			}
			for a := ids.AID(1); a <= 16; a++ {
				if s.Contains(a) != ref.present[a] {
					t.Fatalf("Contains(%v)=%v, model says %v", a, s.Contains(a), ref.present[a])
				}
			}
			if !s.Equal(s.Clone()) {
				t.Fatal("set != its own clone")
			}
		}
	})
}

// FuzzIntervalSetModel checks IntervalSet against the model over a
// universe of 64 intervals, so a set crosses the size at which it
// builds its hash index (indexAbove) and shrinks back below it: the
// scan and the index must agree on every answer. Each byte's top two
// bits pick add, remove or clear; the low six pick the interval.
func FuzzIntervalSetModel(f *testing.F) {
	var grow []byte
	for v := byte(0); v < 40; v++ {
		grow = append(grow, v)
	}
	f.Add(append(grow, 0x80|5, 0x80|30, 0x05, 0x80|0, 0x3f, 0xc0, 0x01))
	f.Add([]byte{0x00, 0x41, 0x00, 0x81, 0xc0})

	iid := func(v byte) ids.IntervalID {
		return ids.IntervalID{Proc: ids.PID(v%4 + 1), Seq: uint32(v / 4), Epoch: uint32(v) + 7}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewIntervalSet()
		ref := newRefSet[ids.IntervalID]()
		for _, b := range data {
			i := iid(b & 0x3f)
			switch b & 0xc0 {
			case 0x80:
				if got, want := s.Remove(i), ref.remove(i); got != want {
					t.Fatalf("Remove(%v)=%v, model says %v", i, got, want)
				}
			case 0xc0:
				s.Clear()
				ref = newRefSet[ids.IntervalID]()
			default:
				if got, want := s.Add(i), ref.add(i); got != want {
					t.Fatalf("Add(%v)=%v, model says %v", i, got, want)
				}
			}

			if s.Len() != len(ref.order) || s.Empty() != (len(ref.order) == 0) {
				t.Fatalf("Len=%d Empty=%v, model has %d", s.Len(), s.Empty(), len(ref.order))
			}
			got := s.Slice()
			for k, want := range ref.order {
				if got[k] != want {
					t.Fatalf("Slice[%d]=%v, model says %v", k, got[k], want)
				}
			}
			for v := byte(0); v < 64; v++ {
				if i := iid(v); s.Contains(i) != ref.present[i] {
					t.Fatalf("Contains(%v)=%v, model says %v", i, s.Contains(i), ref.present[i])
				}
			}
			c := s.Clone()
			if c.Len() != s.Len() {
				t.Fatalf("clone Len=%d, set has %d", c.Len(), s.Len())
			}
			outside := ids.IntervalID{Proc: 99}
			c.Add(outside)
			for _, x := range got {
				c.Remove(x)
			}
			if s.Contains(outside) || s.Len() != len(ref.order) {
				t.Fatal("mutating a clone changed the set")
			}
		}
	})
}
