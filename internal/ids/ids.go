// Package ids defines the typed identifiers shared by every HOPE module:
// process identifiers, assumption identifiers, and globally unique,
// epoch-stamped interval identifiers.
//
// Interval identifiers carry an epoch so that control messages addressed
// to an interval that has since been rolled back (and possibly re-created
// by re-execution) are detectably stale: a re-created interval at the same
// history position receives a fresh epoch, so stale Replace/Rollback
// messages never apply to it by accident.
package ids

import (
	"fmt"
	"sync/atomic"
)

// PID identifies a process in the virtual process machine, or an
// assumption attached to its engine's AID table. The zero PID is never
// allocated and acts as "no process".
type PID uint64

// NilPID is the reserved "no process" identifier.
const NilPID PID = 0

// String implements fmt.Stringer.
func (p PID) String() string {
	if p == NilPID {
		return "pid:nil"
	}
	return fmt.Sprintf("pid:%d", uint64(p))
}

// Valid reports whether p names an allocated process.
func (p PID) Valid() bool { return p != NilPID }

// AID identifies an optimistic assumption. The paper's prototype realizes
// each assumption as a dedicated AID process; here an AID is a PID drawn
// from the same allocator and attached to its engine's AID table, so
// messages address an assumption exactly as they address a process.
type AID PID

// NilAID is the reserved "no assumption" identifier. guess(NilAID) in the
// paper spawns a fresh assumption; the public API exposes that as AidInit.
const NilAID AID = 0

// String implements fmt.Stringer.
func (a AID) String() string {
	if a == NilAID {
		return "aid:nil"
	}
	return fmt.Sprintf("aid:%d", uint64(a))
}

// Valid reports whether a names an allocated assumption.
func (a AID) Valid() bool { return a != NilAID }

// PID returns the PID that addresses this assumption's machine.
func (a AID) PID() PID { return PID(a) }

// IntervalID identifies one interval in one process's execution history.
// Seq is the interval's position counter within the process and Epoch
// distinguishes re-creations of an interval at the same position after a
// rollback. IntervalIDs are comparable and usable as map keys.
type IntervalID struct {
	Proc  PID
	Seq   uint32
	Epoch uint32
}

// NilInterval is the zero IntervalID, meaning "no interval".
var NilInterval IntervalID

// String implements fmt.Stringer.
func (i IntervalID) String() string {
	if i == NilInterval {
		return "iid:nil"
	}
	return fmt.Sprintf("iid:%d/%d.%d", uint64(i.Proc), i.Seq, i.Epoch)
}

// Valid reports whether i names an interval.
func (i IntervalID) Valid() bool { return i != NilInterval }

// PIDAllocator hands out process identifiers. It is safe for concurrent
// use. The zero value is ready to use and starts at PID 1.
type PIDAllocator struct {
	next atomic.Uint64
}

// Next returns a fresh, never-before-issued PID.
func (a *PIDAllocator) Next() PID {
	return PID(a.next.Add(1))
}

// Passed returns the allocator's position: every PID it will still issue
// is greater than this one.
func (a *PIDAllocator) Passed() PID {
	return PID(a.next.Load())
}

// Skip advances the allocator so every subsequently issued PID is greater
// than base. It never moves the allocator backwards; concurrent Skip and
// Next calls are safe. Distributed deployments use disjoint bases per
// node so locally allocated PIDs are globally unique.
func (a *PIDAllocator) Skip(base PID) {
	for {
		cur := a.next.Load()
		if cur >= uint64(base) {
			return
		}
		if a.next.CompareAndSwap(cur, uint64(base)) {
			return
		}
	}
}

// EpochAllocator hands out interval epochs. It is safe for concurrent use.
// The zero value is ready to use and starts at epoch 1, so the zero
// IntervalID (epoch 0) is never issued.
type EpochAllocator struct {
	next atomic.Uint32
}

// Next returns a fresh epoch number.
func (a *EpochAllocator) Next() uint32 {
	return a.next.Add(1)
}

// Skip advances the allocator so every subsequently issued epoch is
// greater than base. Recovery uses it so intervals created after a
// restart never reuse an epoch that a restored (pre-crash) interval
// already carries. It never moves the allocator backwards.
func (a *EpochAllocator) Skip(base uint32) {
	for {
		cur := a.next.Load()
		if cur >= base {
			return
		}
		if a.next.CompareAndSwap(cur, base) {
			return
		}
	}
}
