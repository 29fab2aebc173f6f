package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per member of every cluster
// ring: the Manager builds with it, so members cannot disagree on it.
// 64 points per node keeps the largest/smallest share ratio under ~2
// for small clusters without making ring rebuilds or lookups expensive
// (rebuild is O(n·v·log(n·v)), lookup one binary search).
const DefaultVNodes = 64

// Ring is a consistent-hash ownership ring over a live member set:
// every 64-bit key (an AID or PID — the node-ID namespace makes either
// a stable name) is owned by exactly one live node. The ring is a pure
// function of (live set, vnodes): two nodes that agree on the view
// agree on every ownership decision with no further coordination, and
// when a member dies or joins only the keys in the arcs it covered
// change owner — everything else keeps its placement, so a rebalance
// cannot stampede the whole key space.
type Ring struct {
	vnodes int
	live   []int    // sorted member IDs the ring was built from
	points []uint64 // sorted vnode positions
	owner  []int32  // owner[i] = member owning points[i]
}

// NewRing builds the ring for the given live members (order ignored,
// duplicates collapsed) with v virtual nodes each (0 = DefaultVNodes).
// An empty live set yields a ring that owns nothing.
func NewRing(live []int, v int) *Ring {
	if v <= 0 {
		v = DefaultVNodes
	}
	ids := append([]int(nil), live...)
	sort.Ints(ids)
	ids = dedupSorted(ids)
	r := &Ring{
		vnodes: v,
		live:   ids,
		points: make([]uint64, 0, len(ids)*v),
		owner:  make([]int32, 0, len(ids)*v),
	}
	type pt struct {
		pos uint64
		id  int
	}
	pts := make([]pt, 0, len(ids)*v)
	for _, id := range ids {
		for rep := 0; rep < v; rep++ {
			pts = append(pts, pt{pos: vnodeHash(id, rep), id: id})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].pos != pts[j].pos {
			return pts[i].pos < pts[j].pos
		}
		// Hash collisions between vnodes resolve by member ID, so every
		// node breaks the tie identically.
		return pts[i].id < pts[j].id
	})
	for _, p := range pts {
		r.points = append(r.points, p.pos)
		r.owner = append(r.owner, int32(p.id))
	}
	return r
}

func dedupSorted(ids []int) []int {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// mix64 is the murmur3 64-bit finalizer: a full-avalanche bijection,
// so near-identical inputs (sequential IDs, small vnode indices) land
// uniformly across the circle. Byte-stream hashes like FNV spread
// low-entropy fixed-width inputs far too narrowly for ring placement.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// vnodeHash positions replica rep of member id on the ring. The golden
// ratio multiplier separates (id, rep) pairs before mixing so no two
// pairs collide structurally; mix64 then spreads them.
func vnodeHash(id, rep int) uint64 {
	return mix64(uint64(id)*0x9e3779b97f4a7c15 + uint64(rep) + 1)
}

// keyHash positions a key on the ring. Keys are hashed rather than used
// raw because PIDs and AIDs concentrate in the low bits of each node's
// namespace; mixing spreads them across the whole circle. The constant
// salts key positions away from the vnode positions.
func keyHash(key uint64) uint64 {
	return mix64(key ^ 0xa5a5a5a55a5a5a5a)
}

// Owner returns the live member owning key. ok is false only on an
// empty ring (no live members).
func (r *Ring) Owner(key uint64) (node int, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	pos := keyHash(key)
	// First vnode clockwise from pos, wrapping past the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= pos })
	if i == len(r.points) {
		i = 0
	}
	return int(r.owner[i]), true
}

// Owns reports whether the ring assigns key to self. The process-
// transplant layer uses it with PID keys: when a member dies, each
// survivor adopts exactly the corpse processes whose PIDs the agreed
// ring hands to it, so one corpse's process set partitions across the
// survivors with no overlap and no coordination beyond the view.
func (r *Ring) Owns(self int, key uint64) bool {
	owner, ok := r.Owner(key)
	return ok && owner == self
}

// Live returns the sorted member set the ring was built from.
func (r *Ring) Live() []int { return append([]int(nil), r.live...) }

// Size returns how many live members the ring shards across.
func (r *Ring) Size() int { return len(r.live) }

// Shares returns each member's fraction of the ring circle — a balance
// diagnostic (perfect balance is 1/n each).
func (r *Ring) Shares() map[int]float64 {
	out := make(map[int]float64, len(r.live))
	if len(r.points) == 0 {
		return out
	}
	const whole = float64(1<<63) * 2 // 2^64 as float
	for i, pos := range r.points {
		var arc uint64
		if i == 0 {
			// The first point owns the wrap-around arc from the last point.
			arc = pos + (^r.points[len(r.points)-1] + 1)
		} else {
			arc = pos - r.points[i-1]
		}
		out[int(r.owner[i])] += float64(arc) / whole
	}
	return out
}

// String implements fmt.Stringer.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{%d members × %d vnodes}", len(r.live), r.vnodes)
}
