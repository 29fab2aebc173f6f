package aid

// Exhaustive exploration of the AID state machine. Because Machine.Step
// is pure, the entire reachable state graph under a small message
// alphabet can be enumerated by breadth-first search, checking global
// invariants at every state and transition. This complements the
// per-figure unit tests: those pin down the transitions the paper draws,
// the explorer proves no *reachable* state — in any order, including
// orders the paper never discusses — breaks the machine's contracts.

import (
	"fmt"
	"sort"
	"testing"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
)

// The exploration universe: two distinct guessing/affirming intervals and
// two condition AIDs. Two of each suffices to distinguish "same" from
// "different" in every guard the machine has (affirmer matching, DOM
// membership, condition sets); larger universes add symmetric copies of
// the same states.
var (
	expIIDs = []ids.IntervalID{
		{Proc: 11, Seq: 1, Epoch: 1},
		{Proc: 12, Seq: 1, Epoch: 1},
	}
	expConds = []ids.AID{301, 302}
)

// expAlphabet enumerates every input message shape over the universe.
func expAlphabet(self ids.AID) []*msg.Message {
	var in []*msg.Message
	for _, iid := range expIIDs {
		in = append(in,
			msg.Guess(iid.Proc, iid, self),
			msg.Deny(iid.Proc, iid, self),
			msg.Retract(iid.Proc, iid, self),
			msg.CutProbe(iid.Proc, iid, self),
		)
		// Affirm with every subset of the condition universe, including
		// the empty (definite) affirm.
		for mask := 0; mask < 1<<len(expConds); mask++ {
			var ido []ids.AID
			for j, c := range expConds {
				if mask&(1<<j) != 0 {
					ido = append(ido, c)
				}
			}
			in = append(in, msg.Affirm(iid.Proc, iid, self, ido))
		}
	}
	return in
}

// fingerprint canonicalizes a machine state for the visited set.
func fingerprint(m *Machine) string {
	dom := m.DOM()
	sort.Slice(dom, func(i, j int) bool { return dom[i].Proc < dom[j].Proc })
	aido := m.AIDO()
	sort.Slice(aido, func(i, j int) bool { return aido[i] < aido[j] })
	return fmt.Sprintf("%s|%v|%v|%v", m.State(), dom, aido, m.affirmer)
}

// replay rebuilds a machine by feeding a message path from Cold.
func replay(self ids.AID, path []*msg.Message) *Machine {
	m := NewMachine(self, trace.Nop)
	for _, in := range path {
		m.Step(in)
	}
	return m
}

// checkMachineInvariants validates state-shape invariants that must hold
// in every reachable state.
func checkMachineInvariants(t *testing.T, m *Machine, path []*msg.Message) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("after %v: "+format, append([]any{pathString(path)}, args...)...)
	}
	switch m.State() {
	case Maybe:
		if len(m.AIDO()) == 0 {
			fail("Maybe with empty A_IDO")
		}
		if m.affirmer == ids.NilInterval {
			fail("Maybe without an affirmer")
		}
	case Cold, Hot, True, False:
		if len(m.AIDO()) != 0 {
			fail("%s carries conditions %v", m.State(), m.AIDO())
		}
		if m.affirmer != ids.NilInterval {
			fail("%s has affirmer %v", m.State(), m.affirmer)
		}
	}
	if m.State() == Cold && len(m.DOM()) != 0 {
		fail("Cold with non-empty DOM %v", m.DOM())
	}
}

// checkStepContract validates the output of one transition.
func checkStepContract(t *testing.T, before State, domBefore int, in *msg.Message, m *Machine, out []*msg.Message, path []*msg.Message) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("step %s after %v: "+format,
			append([]any{in, pathString(path)}, args...)...)
	}

	// Terminal absorption: True and False are never left.
	if before == True && m.State() != True {
		fail("left True for %s", m.State())
	}
	if before == False && m.State() != False {
		fail("left False for %s", m.State())
	}
	// DOM is monotone: the machine only accumulates dependents.
	if len(m.DOM()) < domBefore {
		fail("DOM shrank %d -> %d", domBefore, len(m.DOM()))
	}

	for _, o := range out {
		switch o.Kind {
		case msg.KindReplace, msg.KindRollback, msg.KindRevive, msg.KindCutAck:
			if o.AID != m.Self() {
				fail("output %s names foreign AID %v", o, o.AID)
			}
			if o.To != o.IID.Proc {
				fail("output %s not addressed to its interval's process", o)
			}
		default:
			fail("unexpected output kind %s", o.Kind)
		}
		// A rollback is only ever justified by falsity.
		if o.Kind == msg.KindRollback && m.State() != False {
			fail("Rollback emitted in state %s", m.State())
		}
	}

	// Deny fans rollbacks out to every dependent known at denial time.
	if in.Kind == msg.KindDeny && before != False && before != True {
		if len(out) != domBefore {
			fail("deny fan-out %d, DOM had %d", len(out), domBefore)
		}
	}
}

func pathString(path []*msg.Message) string {
	s := make([]string, len(path))
	for i, m := range path {
		s[i] = m.Kind.String()
	}
	return fmt.Sprint(s)
}

// TestExhaustiveStateGraph walks the full reachable state graph of the
// machine under the two-interval/two-condition alphabet, checking every
// state and transition. It also proves the graph is closed (finite) and
// that every (state × input-kind) pair the paper's figures describe is
// actually reached.
func TestExhaustiveStateGraph(t *testing.T) {
	self := ids.AID(300)
	alphabet := expAlphabet(self)

	type node struct {
		path []*msg.Message
	}
	start := NewMachine(self, trace.Nop)
	visited := map[string]bool{fingerprint(start): true}
	queue := []node{{}}
	covered := map[string]bool{}
	transitions := 0

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, in := range alphabet {
			m := replay(self, cur.path)
			before := m.State()
			domBefore := len(m.DOM())

			out := m.Step(in)
			transitions++
			covered[fmt.Sprintf("%s/%s", before, in.Kind)] = true

			path := append(append([]*msg.Message{}, cur.path...), in)
			checkMachineInvariants(t, m, path)
			checkStepContract(t, before, domBefore, in, m, out, path)

			// Determinism: replaying the same path yields the same state.
			if fp, fp2 := fingerprint(m), fingerprint(replay(self, path)); fp != fp2 {
				t.Fatalf("nondeterministic step: %s vs %s after %v", fp, fp2, pathString(path))
			}

			fp := fingerprint(m)
			if !visited[fp] {
				visited[fp] = true
				queue = append(queue, node{path: path})
			}
		}
		if len(visited) > 5000 {
			t.Fatalf("state graph not closing: %d states", len(visited))
		}
	}

	t.Logf("explored %d states, %d transitions", len(visited), transitions)

	// Every (state × kind) combination of the paper's figures must have
	// been exercised.
	for _, st := range []State{Cold, Hot, Maybe, True, False} {
		for _, k := range []msg.Kind{msg.KindGuess, msg.KindAffirm, msg.KindDeny, msg.KindRetract, msg.KindCutProbe} {
			if !covered[fmt.Sprintf("%s/%s", st, k)] {
				t.Errorf("(state=%s, input=%s) unreachable in exploration", st, k)
			}
		}
	}
}

// TestExplorationReachesAllStates double-checks the five truth values are
// all reachable — a guard against the explorer silently exploring a
// degenerate slice of the graph.
func TestExplorationReachesAllStates(t *testing.T) {
	self := ids.AID(300)
	alphabet := expAlphabet(self)
	reached := map[State]bool{Cold: true}
	visited := map[string]bool{}
	var walk func(path []*msg.Message, depth int)
	walk = func(path []*msg.Message, depth int) {
		if depth == 0 {
			return
		}
		for _, in := range alphabet {
			m := replay(self, append(append([]*msg.Message{}, path...), in))
			reached[m.State()] = true
			fp := fingerprint(m)
			if visited[fp] {
				continue
			}
			visited[fp] = true
			walk(append(append([]*msg.Message{}, path...), in), depth-1)
		}
	}
	walk(nil, 4)
	for _, st := range []State{Cold, Hot, Maybe, True, False} {
		if !reached[st] {
			t.Errorf("state %s never reached", st)
		}
	}
}
