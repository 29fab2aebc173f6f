// Package trace provides structured event tracing for the HOPE runtime.
// The theorem-validation tests use a Recorder to observe primitive calls,
// AID state transitions, finalizations, and rollbacks; cmd/hopetrace uses
// a Writer to print annotated message flows (the executable counterpart
// of the paper's Figures 12–14).
package trace

import (
	"fmt"
	"io"
	"sync"

	"github.com/hope-dist/hope/internal/ids"
)

// Kind enumerates traced event kinds.
type Kind int

const (
	// Primitive records a user call to a HOPE primitive.
	Primitive Kind = iota + 1
	// AIDState records an AID machine state transition.
	AIDState
	// Finalize records an interval becoming definite.
	Finalize
	// Rollback records an interval being rolled back.
	Rollback
	// Restart records a process body re-execution beginning.
	Restart
	// Terminate records a process terminated by rollback of its root.
	Terminate
	// Violation records a protocol violation (e.g. affirm of a denied
	// AID), which the paper marks "abort — user error".
	Violation
	// Info records free-form runtime detail.
	Info
	// Transport records transport-level events — connections established
	// or lost, reconnect attempts, resent frames (internal/wire).
	Transport
	// Fault records the failure model acting: a deliberately injected
	// failure — a dropped, delayed, duplicated, or corrupted frame, a
	// partition opening or healing, a severed connection
	// (internal/faultwire) — or the runtime's response to a diagnosed
	// one — a peer declared dead by the wire failure detector, an
	// assumption auto-denied by the liveness layer. Chaos runs replay a
	// seed by comparing these events; in a healthy, fault-free run none
	// of them occur.
	Fault
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Primitive:
		return "prim"
	case AIDState:
		return "aid"
	case Finalize:
		return "finalize"
	case Rollback:
		return "rollback"
	case Restart:
		return "restart"
	case Terminate:
		return "terminate"
	case Violation:
		return "violation"
	case Info:
		return "info"
	case Transport:
		return "transport"
	case Fault:
		return "fault"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one traced occurrence.
type Event struct {
	Kind     Kind
	PID      ids.PID        // process where the event happened
	AID      ids.AID        // subject assumption, if any
	Interval ids.IntervalID // subject interval, if any
	Detail   string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	s := fmt.Sprintf("[%s] %s", e.Kind, e.PID)
	if e.Interval.Valid() {
		s += " " + e.Interval.String()
	}
	if e.AID.Valid() {
		s += " " + e.AID.String()
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Tracer consumes events. Implementations must be safe for concurrent
// use; the runtime emits from many goroutines.
type Tracer interface {
	Emit(Event)
}

// Nop discards all events.
var Nop Tracer = nopTracer{}

type nopTracer struct{}

func (nopTracer) Emit(Event) {}

// Recorder accumulates events in memory. An uncapped Recorder keeps
// everything — right for tests that assert on a whole run, wrong for a
// long-running node, where it is an unbounded leak; construct those
// with NewRecorderCap, which retains only the most recent events in a
// fixed ring.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	cap    int    // >0: ring capacity; 0: unbounded
	start  int    // ring head when len(events) == cap
	total  uint64 // events ever emitted, including evicted ones
}

// NewRecorder returns an empty unbounded recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewRecorderCap returns a recorder that retains at most cap events,
// evicting the oldest as new ones arrive. cap <= 0 means unbounded.
func NewRecorderCap(cap int) *Recorder {
	if cap < 0 {
		cap = 0
	}
	return &Recorder{cap: cap}
}

// Emit implements Tracer.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.total++
	if r.cap > 0 && len(r.events) == r.cap {
		r.events[r.start] = e
		r.start++
		if r.start == r.cap {
			r.start = 0
		}
	} else {
		r.events = append(r.events, e)
	}
	r.mu.Unlock()
}

// Total returns the number of events ever emitted, including any the
// ring has evicted.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events the ring has evicted.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.events))
}

// Events returns a snapshot of the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	return append(out, r.events[:r.start]...)
}

// Filter returns retained events of the given kind, oldest first.
func (r *Recorder) Filter(k Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Count returns how many retained events are of kind k.
func (r *Recorder) Count(k Kind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Writer prints each event to an io.Writer as it arrives.
type Writer struct {
	mu sync.Mutex
	w  io.Writer
}

// NewWriter returns a tracer printing to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Emit implements Tracer.
func (t *Writer) Emit(e Event) {
	t.mu.Lock()
	fmt.Fprintln(t.w, e.String())
	t.mu.Unlock()
}

// Multi fans events out to several tracers.
type Multi []Tracer

// Emit implements Tracer.
func (m Multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}
