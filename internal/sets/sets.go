// Package sets provides the small ordered sets HOPE's dependency tracking
// is built from: AID sets (IDO, A_IDO, UDO, IHA, IHD dependency sets) and
// interval sets (DOM sets held by AID processes).
//
// The sets preserve insertion order so that message fan-out and replay are
// deterministic under a fixed seed, which the test suite relies on.
package sets

import (
	"sort"
	"strings"

	"github.com/hope-dist/hope/internal/ids"
)

// AIDSet is an insertion-ordered set of assumption identifiers.
// The zero value is an empty set ready for use.
type AIDSet struct {
	order []ids.AID
	index map[ids.AID]struct{}
}

// NewAIDSet returns a set containing the given AIDs (duplicates ignored).
func NewAIDSet(aids ...ids.AID) *AIDSet {
	s := &AIDSet{}
	for _, a := range aids {
		s.Add(a)
	}
	return s
}

// Add inserts a into the set. It reports whether a was newly added.
func (s *AIDSet) Add(a ids.AID) bool {
	if s.index == nil {
		s.index = make(map[ids.AID]struct{})
	}
	if _, ok := s.index[a]; ok {
		return false
	}
	s.index[a] = struct{}{}
	s.order = append(s.order, a)
	return true
}

// Remove deletes a from the set. It reports whether a was present.
func (s *AIDSet) Remove(a ids.AID) bool {
	if s.index == nil {
		return false
	}
	if _, ok := s.index[a]; !ok {
		return false
	}
	delete(s.index, a)
	for i, v := range s.order {
		if v == a {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return true
}

// Contains reports whether a is in the set.
func (s *AIDSet) Contains(a ids.AID) bool {
	if s.index == nil {
		return false
	}
	_, ok := s.index[a]
	return ok
}

// Len returns the number of elements.
func (s *AIDSet) Len() int { return len(s.order) }

// Empty reports whether the set has no elements.
func (s *AIDSet) Empty() bool { return len(s.order) == 0 }

// Slice returns a copy of the elements in insertion order. Callers may
// mutate the returned slice freely.
func (s *AIDSet) Slice() []ids.AID {
	if len(s.order) == 0 {
		return nil
	}
	out := make([]ids.AID, len(s.order))
	copy(out, s.order)
	return out
}

// Clone returns an independent copy of the set.
func (s *AIDSet) Clone() *AIDSet {
	c := &AIDSet{}
	for _, a := range s.order {
		c.Add(a)
	}
	return c
}

// Clear removes all elements.
func (s *AIDSet) Clear() {
	s.order = nil
	s.index = nil
}

// Intersects reports whether the set shares any element with the slice.
func (s *AIDSet) Intersects(aids []ids.AID) bool {
	for _, a := range aids {
		if s.Contains(a) {
			return true
		}
	}
	return false
}

// Equal reports whether both sets contain exactly the same elements,
// regardless of insertion order.
func (s *AIDSet) Equal(o *AIDSet) bool {
	if s.Len() != o.Len() {
		return false
	}
	for _, a := range s.order {
		if !o.Contains(a) {
			return false
		}
	}
	return true
}

// String renders the set in sorted order for stable test output.
func (s *AIDSet) String() string {
	elems := s.Slice()
	sort.Slice(elems, func(i, j int) bool { return elems[i] < elems[j] })
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range elems {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.String())
	}
	b.WriteByte('}')
	return b.String()
}

// IntervalSet is an insertion-ordered set of interval identifiers; AID
// processes use it for their DOM (Depends-On-Me) sets.
// The zero value is an empty set ready for use.
type IntervalSet struct {
	order []ids.IntervalID
	index map[ids.IntervalID]struct{}
}

// NewIntervalSet returns a set containing the given intervals.
func NewIntervalSet(iids ...ids.IntervalID) *IntervalSet {
	s := &IntervalSet{}
	for _, i := range iids {
		s.Add(i)
	}
	return s
}

// Add inserts i into the set. It reports whether i was newly added.
func (s *IntervalSet) Add(i ids.IntervalID) bool {
	if s.index == nil {
		s.index = make(map[ids.IntervalID]struct{})
	}
	if _, ok := s.index[i]; ok {
		return false
	}
	s.index[i] = struct{}{}
	s.order = append(s.order, i)
	return true
}

// Remove deletes i from the set. It reports whether i was present.
func (s *IntervalSet) Remove(i ids.IntervalID) bool {
	if s.index == nil {
		return false
	}
	if _, ok := s.index[i]; !ok {
		return false
	}
	delete(s.index, i)
	for n, v := range s.order {
		if v == i {
			s.order = append(s.order[:n], s.order[n+1:]...)
			break
		}
	}
	return true
}

// Contains reports whether i is in the set.
func (s *IntervalSet) Contains(i ids.IntervalID) bool {
	if s.index == nil {
		return false
	}
	_, ok := s.index[i]
	return ok
}

// Len returns the number of elements.
func (s *IntervalSet) Len() int { return len(s.order) }

// Empty reports whether the set has no elements.
func (s *IntervalSet) Empty() bool { return len(s.order) == 0 }

// Slice returns a copy of the elements in insertion order.
func (s *IntervalSet) Slice() []ids.IntervalID {
	if len(s.order) == 0 {
		return nil
	}
	out := make([]ids.IntervalID, len(s.order))
	copy(out, s.order)
	return out
}

// Clone returns an independent copy of the set.
func (s *IntervalSet) Clone() *IntervalSet {
	c := &IntervalSet{}
	for _, i := range s.order {
		c.Add(i)
	}
	return c
}

// Clear removes all elements.
func (s *IntervalSet) Clear() {
	s.order = nil
	s.index = nil
}
