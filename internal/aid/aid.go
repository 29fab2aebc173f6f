// Package aid implements the AID process of the paper's Section 5: a
// state machine (Figure 4) modelling one optimistic assumption, tracking
// the set of dependent intervals (DOM) and the conditional-affirm set
// (A_IDO), and reacting to Guess, Affirm, Deny (Figures 5–8) and Retract
// messages.
//
// The state machine itself (Machine) is pure — Step consumes one message
// and returns the messages to transmit — which lets the test suite
// exhaustively cover every (state × message) transition. The paper's AID
// "process" is an abstraction: the engine hosts every Machine in one
// table (internal/core), addressed by the assumption's PID.
package aid

import (
	"fmt"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/sets"
	"github.com/hope-dist/hope/internal/trace"
)

// State is the truth value of an assumption, extended with the partial
// knowledge optimism introduces (paper §5.2).
type State int

const (
	// Cold — no primitives applied yet.
	Cold State = iota + 1
	// Hot — guessed but not yet affirmed or denied.
	Hot
	// Maybe — speculatively affirmed, conditional on the A_IDO set.
	Maybe
	// True — unconditionally affirmed (final).
	True
	// False — unconditionally denied (final).
	False
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Cold:
		return "Cold"
	case Hot:
		return "Hot"
	case Maybe:
		return "Maybe"
	case True:
		return "True"
	case False:
		return "False"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Final reports whether the state is terminal (True or False).
func (s State) Final() bool { return s == True || s == False }

// Machine is the AID state machine for one assumption.
type Machine struct {
	self   ids.AID
	state  State
	dom    *sets.IntervalSet // Depends-On-Me: intervals contingent on this AID
	aido   *sets.AIDSet      // Affirm-I-Depend-On: AIDs predicating a speculative affirm
	tracer trace.Tracer

	// affirmer is the interval whose speculative affirm produced the
	// current Maybe state; a Retract only applies if it matches. In
	// revocable mode it is also retained on True: the unconditional
	// affirm a finalize sends is itself revocable until the commit
	// watermark covers the finalizing interval.
	affirmer ids.IntervalID

	// revocable marks the commit-watermark mode (DESIGN.md §12): True is
	// not terminal until the global stability frontier covers the
	// affirming interval. The machine keeps DOM entries for dependents
	// that resolved through True, accepts a Retract of the affirm that
	// produced True, and treats a Deny of a True assumption as a
	// revocation (rollback fan-out) rather than a user-error violation.
	revocable bool

	// version counts the changes Export would see: every state transition
	// and every new DOM member.
	version uint64

	// violated records that the machine has traced a violation.
	violated bool
}

// NewMachine returns a Cold machine for assumption self.
func NewMachine(self ids.AID, tracer trace.Tracer) *Machine {
	if tracer == nil {
		tracer = trace.Nop
	}
	return &Machine{
		self:   self,
		state:  Cold,
		dom:    sets.NewIntervalSet(),
		aido:   sets.NewAIDSet(),
		tracer: tracer,
	}
}

// EnableRevocable switches the machine into revocable-commit mode (see
// the revocable field). Called once at construction time by the engine's
// AID table; never mid-run.
func (a *Machine) EnableRevocable() { a.revocable = true }

// Self returns the assumption this machine models.
func (a *Machine) Self() ids.AID { return a.self }

// State returns the current truth value.
func (a *Machine) State() State { return a.state }

// Version returns a counter that moves whenever the machine's exported
// state changes, so a host can skip re-exporting a Step that changed
// nothing (a repeated Guess, a CutProbe answered from True).
func (a *Machine) Version() uint64 { return a.version }

// Violated reports whether the machine has traced a violation: in the
// engine's table, a conflicting Affirm or Deny (the paper's §3 user
// error). A host that drops repeated adjudications keeps such a machine,
// so that a repeat stays a duplicate instead of being traced again.
func (a *Machine) Violated() bool { return a.violated }

// DOM returns a copy of the Depends-On-Me interval set.
func (a *Machine) DOM() []ids.IntervalID { return a.dom.Slice() }

// AIDO returns a copy of the conditional-affirm dependency set.
func (a *Machine) AIDO() []ids.AID { return a.aido.Slice() }

// Step processes one message and returns the messages to transmit. Only
// Guess, Affirm, Deny, Retract and CutProbe messages are meaningful;
// anything else is ignored with a violation trace.
func (a *Machine) Step(m *msg.Message) []*msg.Message {
	switch m.Kind {
	case msg.KindGuess:
		return a.stepGuess(m)
	case msg.KindAffirm:
		return a.stepAffirm(m)
	case msg.KindDeny:
		return a.stepDeny(m)
	case msg.KindRetract:
		return a.stepRetract(m)
	case msg.KindCutProbe:
		return a.stepCutProbe(m)
	default:
		a.violation("unexpected message kind %s", m.Kind)
		return nil
	}
}

// stepGuess implements Figure 6: answer a request for this AID's terminal
// state, or record the dependency until the state resolves.
func (a *Machine) stepGuess(m *msg.Message) []*msg.Message {
	switch a.state {
	case Cold:
		a.depend(m.IID)
		a.setState(Hot, "first guess")
		return nil
	case Hot:
		a.depend(m.IID)
		return nil
	case Maybe:
		// "Pass the buck": tell the sender to depend on the AIDs that
		// predicate this AID's speculative affirm instead of on us.
		//
		// Deviation from Figure 6, which does not record the sender in
		// DOM: the speculative affirm may later be *retracted* (its
		// interval rolls back — the paper's own Figure 11), after which
		// this AID can still be denied. Without the DOM entry the
		// buck-passed dependent would be unreachable by that denial's
		// rollback fan-out, having committed on a conditional chain
		// whose base was withdrawn. Recording it is harmless in the
		// paper's own cases (on True it receives a redundant empty
		// Replace).
		a.depend(m.IID)
		return []*msg.Message{msg.Replace(a.self, m.IID, a.aido.Slice())}
	case True:
		if a.revocable {
			// True is revocable until the watermark covers the affirmer:
			// keep the dependent reachable by a later retract or deny.
			a.depend(m.IID)
		}
		return []*msg.Message{msg.Replace(a.self, m.IID, nil)}
	case False:
		return []*msg.Message{msg.Rollback(a.self, m.IID)}
	}
	return nil
}

// stepAffirm implements Figure 7: an empty IDO set is a definite affirm
// (→ True); a non-empty one is conditional (→ Maybe). Either way every
// dependent interval is told to replace this AID with the IDO set.
func (a *Machine) stepAffirm(m *msg.Message) []*msg.Message {
	switch a.state {
	case Cold, Hot, Maybe:
		a.aido = sets.NewAIDSet(m.IDO...)
		out := make([]*msg.Message, 0, a.dom.Len())
		for _, b := range a.dom.Slice() {
			out = append(out, msg.Replace(a.self, b, m.IDO))
		}
		if a.aido.Empty() {
			if a.revocable {
				// Retain the affirmer: if its interval is revoked (the
				// premature-commit repair), its Retract must find us.
				a.affirmer = m.IID
			} else {
				a.affirmer = ids.NilInterval
			}
			a.setState(True, "definite affirm by "+m.IID.String())
		} else {
			a.affirmer = m.IID
			a.setState(Maybe, "speculative affirm by "+m.IID.String())
		}
		return out
	case True:
		// Re-affirming a true AID is redundant (the finalize of a
		// speculatively affirming interval re-sends unconditionally).
		return nil
	case False:
		a.violation("affirm of denied AID (conflicting affirm/deny, paper §3: user error)")
		return nil
	}
	return nil
}

// stepDeny implements Figure 8: denies are unconditional; every dependent
// interval is rolled back.
func (a *Machine) stepDeny(m *msg.Message) []*msg.Message {
	switch a.state {
	case Cold, Hot, Maybe:
		out := make([]*msg.Message, 0, a.dom.Len())
		for _, b := range a.dom.Slice() {
			out = append(out, msg.Rollback(a.self, b))
		}
		a.affirmer = ids.NilInterval
		a.aido.Clear()
		a.setState(False, fmt.Sprintf("denied by %s, rollback fan-out to %v", m.IID, a.dom.Slice()))
		return out
	case False:
		// Redundant deny: ignore.
		return nil
	case True:
		if a.revocable {
			// Revocable commit: the affirm that produced True may itself
			// have been premature (an uncovered finalize). The deny wins;
			// dependents that resolved through True are rolled back, and
			// the engine repairs uncovered definite intervals among them.
			out := make([]*msg.Message, 0, a.dom.Len())
			for _, b := range a.dom.Slice() {
				out = append(out, msg.Rollback(a.self, b))
			}
			a.affirmer = ids.NilInterval
			a.aido.Clear()
			a.setState(False, fmt.Sprintf("affirmed assumption revoked by deny from %s (revocable commit)", m.IID))
			return out
		}
		a.violation("deny of affirmed AID (conflicting affirm/deny, paper §3: user error)")
		return nil
	}
	return nil
}

// stepRetract withdraws a speculative affirm whose interval rolled back
// (the unnamed Figure 11 rollback message; DESIGN.md §4.2). The AID
// returns to Hot so re-executed guesses and affirms find it unresolved.
func (a *Machine) stepRetract(m *msg.Message) []*msg.Message {
	// In revocable mode the unconditional affirm behind True can also be
	// withdrawn: the finalize that sent it was an uncovered (revocable)
	// commit whose interval has been rolled back.
	revokedTrue := a.revocable && a.state == True && a.affirmer == m.IID
	if (a.state != Maybe || a.affirmer != m.IID) && !revokedTrue {
		return nil
	}
	a.aido.Clear()
	a.affirmer = ids.NilInterval
	a.setState(Hot, "affirm retracted by rollback of "+m.IID.String())
	// Every dependent may have resolved this assumption through the
	// now-void conditional chain (possibly even discarding it via a
	// stale UDO entry); tell them all to depend on it directly again.
	out := make([]*msg.Message, 0, a.dom.Len())
	for _, b := range a.dom.Slice() {
		out = append(out, msg.Revive(a.self, b))
	}
	return out
}

// stepCutProbe answers a cut-confirmation request (see msg.KindCutProbe):
// a cut is sound while this AID remains conditionally affirmed (a genuine
// ring member) and moot once it is True; a Hot/Cold AID means the chain
// that justified the cut was retracted, so the prober must depend on this
// assumption directly again, and a False one rolls it back.
func (a *Machine) stepCutProbe(m *msg.Message) []*msg.Message {
	switch a.state {
	case Maybe:
		a.depend(m.IID) // reachable by a later retract/deny
		return []*msg.Message{msg.CutAck(a.self, m.IID)}
	case True:
		if a.revocable {
			a.depend(m.IID) // True is revocable: stay reachable
		}
		return []*msg.Message{msg.CutAck(a.self, m.IID)}
	case Cold, Hot:
		a.depend(m.IID)
		if a.state == Cold {
			// The prober is now a dependent, which is exactly what Hot
			// means; stepGuess makes the same transition.
			a.setState(Hot, "cut probe from "+m.IID.String())
		}
		return []*msg.Message{msg.Revive(a.self, m.IID)}
	case False:
		return []*msg.Message{msg.Rollback(a.self, m.IID)}
	}
	return nil
}

// depend records b in DOM.
func (a *Machine) depend(b ids.IntervalID) {
	if a.dom.Add(b) {
		a.version++
	}
}

func (a *Machine) setState(s State, why string) {
	a.state = s
	a.version++
	a.tracer.Emit(trace.Event{
		Kind:   trace.AIDState,
		PID:    a.self.PID(),
		AID:    a.self,
		Detail: fmt.Sprintf("-> %s (%s)", s, why),
	})
}

func (a *Machine) violation(format string, args ...any) {
	a.violated = true
	a.tracer.Emit(trace.Event{
		Kind:   trace.Violation,
		PID:    a.self.PID(),
		AID:    a.self,
		Detail: fmt.Sprintf(format, args...),
	})
}
