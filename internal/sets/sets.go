// Package sets provides the small ordered sets HOPE's dependency tracking
// is built from: AID sets (IDO, A_IDO, UDO, IHA, IHD dependency sets) and
// interval sets (DOM sets held by AID processes).
//
// The sets preserve insertion order so that message fan-out and replay are
// deterministic under a fixed seed, which the test suite relies on.
package sets

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"github.com/hope-dist/hope/internal/ids"
)

// indexAbove is the size past which a set builds a hash index. The sets
// are tiny in practice, and up to this size a scan of the order slice
// beats a map lookup and costs no allocation.
const indexAbove = 16

// ordered is an insertion-ordered set: the order slice alone up to
// indexAbove elements, plus a hash index above that. The zero value is
// an empty set ready for use.
type ordered[T comparable] struct {
	order []T
	index map[T]struct{} // nil until order first grows past indexAbove
}

// Add inserts v into the set. It reports whether v was newly added.
func (s *ordered[T]) Add(v T) bool {
	if s.Contains(v) {
		return false
	}
	s.order = append(s.order, v)
	switch {
	case s.index != nil:
		s.index[v] = struct{}{}
	case len(s.order) > indexAbove:
		s.index = make(map[T]struct{}, 2*len(s.order))
		for _, x := range s.order {
			s.index[x] = struct{}{}
		}
	}
	return true
}

// Remove deletes v from the set. It reports whether v was present.
func (s *ordered[T]) Remove(v T) bool {
	if s.index != nil {
		if _, ok := s.index[v]; !ok {
			return false
		}
		delete(s.index, v)
	}
	i := slices.Index(s.order, v)
	if i < 0 {
		return false
	}
	s.order = slices.Delete(s.order, i, i+1)
	return true
}

// Contains reports whether v is in the set.
func (s *ordered[T]) Contains(v T) bool {
	if s.index != nil {
		_, ok := s.index[v]
		return ok
	}
	return slices.Contains(s.order, v)
}

// Len returns the number of elements.
func (s *ordered[T]) Len() int { return len(s.order) }

// Empty reports whether the set has no elements.
func (s *ordered[T]) Empty() bool { return len(s.order) == 0 }

// Slice returns a copy of the elements in insertion order. Callers may
// mutate the returned slice freely.
func (s *ordered[T]) Slice() []T {
	if len(s.order) == 0 {
		return nil
	}
	return slices.Clone(s.order)
}

// Clear removes all elements.
func (s *ordered[T]) Clear() {
	s.order = nil
	s.index = nil
}

func (s *ordered[T]) clone() ordered[T] {
	c := ordered[T]{order: slices.Clone(s.order)}
	if s.index != nil {
		c.index = maps.Clone(s.index)
	}
	return c
}

// AIDSet is an insertion-ordered set of assumption identifiers.
// The zero value is an empty set ready for use.
type AIDSet struct{ ordered[ids.AID] }

// NewAIDSet returns a set containing the given AIDs (duplicates ignored).
func NewAIDSet(aids ...ids.AID) *AIDSet {
	s := &AIDSet{}
	for _, a := range aids {
		s.Add(a)
	}
	return s
}

// Clone returns an independent copy of the set.
func (s *AIDSet) Clone() *AIDSet { return &AIDSet{s.clone()} }

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
type IntervalSet struct{ ordered[ids.IntervalID] }

// NewIntervalSet returns a set containing the given intervals.
func NewIntervalSet(iids ...ids.IntervalID) *IntervalSet {
	s := &IntervalSet{}
	for _, i := range iids {
		s.Add(i)
	}
	return s
}

// Clone returns an independent copy of the set.
func (s *IntervalSet) Clone() *IntervalSet { return &IntervalSet{s.clone()} }
