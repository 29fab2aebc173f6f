package aid

import (
	"testing"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
)

var (
	testAID = ids.AID(100)
	iidA    = ids.IntervalID{Proc: 1, Seq: 0, Epoch: 1}
	iidB    = ids.IntervalID{Proc: 2, Seq: 3, Epoch: 2}
	iidC    = ids.IntervalID{Proc: 3, Seq: 1, Epoch: 3}
	depY    = ids.AID(200)
	depZ    = ids.AID(201)
)

// drive constructs a machine and feeds it the given messages, returning
// the machine and all emitted messages in order.
func drive(t *testing.T, msgs ...*msg.Message) (*Machine, []*msg.Message) {
	t.Helper()
	m := NewMachine(testAID, trace.Nop)
	var out []*msg.Message
	for _, in := range msgs {
		out = append(out, m.Step(in)...)
	}
	return m, out
}

func guessFrom(iid ids.IntervalID) *msg.Message { return msg.Guess(iid.Proc, iid, testAID) }
func affirmFrom(iid ids.IntervalID, ido ...ids.AID) *msg.Message {
	return msg.Affirm(iid.Proc, iid, testAID, ido)
}
func denyFrom(iid ids.IntervalID) *msg.Message    { return msg.Deny(iid.Proc, iid, testAID) }
func retractFrom(iid ids.IntervalID) *msg.Message { return msg.Retract(iid.Proc, iid, testAID) }

func wantKinds(t *testing.T, out []*msg.Message, kinds ...msg.Kind) {
	t.Helper()
	if len(out) != len(kinds) {
		t.Fatalf("emitted %d messages (%v), want %d", len(out), out, len(kinds))
	}
	for i, k := range kinds {
		if out[i].Kind != k {
			t.Fatalf("message %d kind = %s, want %s (%v)", i, out[i].Kind, k, out)
		}
	}
}

// --- Figure 6: Guess processing in every state ---

func TestGuessColdRecordsAndHeats(t *testing.T) {
	m, out := drive(t, guessFrom(iidA))
	wantKinds(t, out)
	if m.State() != Hot {
		t.Fatalf("state = %s, want Hot", m.State())
	}
	if dom := m.DOM(); len(dom) != 1 || dom[0] != iidA {
		t.Fatalf("DOM = %v, want [%s]", dom, iidA)
	}
}

func TestGuessHotAccumulatesDOM(t *testing.T) {
	m, out := drive(t, guessFrom(iidA), guessFrom(iidB))
	wantKinds(t, out)
	if m.State() != Hot {
		t.Fatalf("state = %s, want Hot", m.State())
	}
	if dom := m.DOM(); len(dom) != 2 {
		t.Fatalf("DOM = %v, want 2 members", dom)
	}
}

func TestGuessHotDuplicateIsIdempotent(t *testing.T) {
	m, _ := drive(t, guessFrom(iidA), guessFrom(iidA))
	if dom := m.DOM(); len(dom) != 1 {
		t.Fatalf("DOM = %v, want 1 member after duplicate guess", dom)
	}
}

func TestGuessMaybePassesTheBuck(t *testing.T) {
	m, out := drive(t,
		guessFrom(iidA),
		affirmFrom(iidB, depY), // speculative affirm: Maybe, A_IDO={Y}
		guessFrom(iidC),
	)
	if m.State() != Maybe {
		t.Fatalf("state = %s, want Maybe", m.State())
	}
	// First output: Replace to iidA from the affirm; second: Replace to
	// the new guesser iidC carrying A_IDO.
	wantKinds(t, out, msg.KindReplace, msg.KindReplace)
	last := out[len(out)-1]
	if last.IID != iidC {
		t.Fatalf("Replace target = %s, want %s", last.IID, iidC)
	}
	if len(last.IDO) != 1 || last.IDO[0] != depY {
		t.Fatalf("Replace IDO = %v, want [%s]", last.IDO, depY)
	}
	// Deviation from Figure 6: the buck-passed guesser IS recorded in
	// DOM so a retract-then-deny still reaches it (see stepGuess).
	found := false
	for _, d := range m.DOM() {
		if d == iidC {
			found = true
		}
	}
	if !found {
		t.Fatal("Maybe-state guesser missing from DOM (retract-then-deny would strand it)")
	}
}

func TestGuessTrueAnswersReplaceNull(t *testing.T) {
	_, out := drive(t,
		affirmFrom(iidB), // definite affirm: True
		guessFrom(iidC),
	)
	wantKinds(t, out, msg.KindReplace)
	if out[0].IID != iidC || len(out[0].IDO) != 0 {
		t.Fatalf("Replace = %v, want empty-IDO Replace to %s", out[0], iidC)
	}
}

func TestGuessFalseAnswersRollback(t *testing.T) {
	_, out := drive(t,
		denyFrom(iidB),
		guessFrom(iidC),
	)
	wantKinds(t, out, msg.KindRollback)
	if out[0].IID != iidC || out[0].AID != testAID {
		t.Fatalf("Rollback = %v, want rollback of %s for %s", out[0], iidC, testAID)
	}
}

// --- Figure 7: Affirm processing ---

func TestAffirmEmptyIDOGoesTrue(t *testing.T) {
	m, out := drive(t,
		guessFrom(iidA),
		guessFrom(iidB),
		affirmFrom(iidC),
	)
	if m.State() != True {
		t.Fatalf("state = %s, want True", m.State())
	}
	// One Replace-with-null per DOM member.
	wantKinds(t, out, msg.KindReplace, msg.KindReplace)
	for _, o := range out {
		if len(o.IDO) != 0 {
			t.Fatalf("Replace IDO = %v, want empty", o.IDO)
		}
	}
}

func TestAffirmNonEmptyIDOGoesMaybe(t *testing.T) {
	m, out := drive(t,
		guessFrom(iidA),
		affirmFrom(iidB, depY, depZ),
	)
	if m.State() != Maybe {
		t.Fatalf("state = %s, want Maybe", m.State())
	}
	wantKinds(t, out, msg.KindReplace)
	if got := out[0].IDO; len(got) != 2 || got[0] != depY || got[1] != depZ {
		t.Fatalf("Replace IDO = %v, want [%s %s]", got, depY, depZ)
	}
	if aido := m.AIDO(); len(aido) != 2 {
		t.Fatalf("A_IDO = %v, want 2 members", aido)
	}
}

func TestAffirmFromColdDirectlyTrue(t *testing.T) {
	m, out := drive(t, affirmFrom(iidA))
	if m.State() != True {
		t.Fatalf("state = %s, want True", m.State())
	}
	wantKinds(t, out) // empty DOM: nothing to send
}

func TestAffirmMaybeUpgradedToTrue(t *testing.T) {
	// A speculative affirm followed by the affirming interval's finalize
	// (unconditional re-affirm) lands in True and re-notifies DOM.
	m, out := drive(t,
		guessFrom(iidA),
		affirmFrom(iidB, depY),
		affirmFrom(iidB),
	)
	if m.State() != True {
		t.Fatalf("state = %s, want True", m.State())
	}
	wantKinds(t, out, msg.KindReplace, msg.KindReplace)
	if last := out[len(out)-1]; len(last.IDO) != 0 {
		t.Fatalf("final Replace IDO = %v, want empty", last.IDO)
	}
}

func TestAffirmAfterTrueIsIgnored(t *testing.T) {
	m, out := drive(t,
		affirmFrom(iidA),
		affirmFrom(iidB),
	)
	if m.State() != True {
		t.Fatalf("state = %s, want True", m.State())
	}
	wantKinds(t, out)
}

func TestAffirmAfterFalseIsViolation(t *testing.T) {
	rec := trace.NewRecorder()
	m := NewMachine(testAID, rec)
	m.Step(denyFrom(iidA))
	out := m.Step(affirmFrom(iidB))
	if len(out) != 0 {
		t.Fatalf("emitted %v, want nothing", out)
	}
	if m.State() != False {
		t.Fatalf("state = %s, want False", m.State())
	}
	if rec.Count(trace.Violation) == 0 {
		t.Fatal("conflicting affirm after deny not traced as violation")
	}
}

// --- Figure 8: Deny processing ---

func TestDenyRollsBackDOM(t *testing.T) {
	m, out := drive(t,
		guessFrom(iidA),
		guessFrom(iidB),
		denyFrom(iidC),
	)
	if m.State() != False {
		t.Fatalf("state = %s, want False", m.State())
	}
	wantKinds(t, out, msg.KindRollback, msg.KindRollback)
	if out[0].IID != iidA || out[1].IID != iidB {
		t.Fatalf("rollback targets %v, want [%s %s]", out, iidA, iidB)
	}
}

func TestDenyMaybeRollsBackDOM(t *testing.T) {
	m, out := drive(t,
		guessFrom(iidA),
		affirmFrom(iidB, depY),
		denyFrom(iidC),
	)
	if m.State() != False {
		t.Fatalf("state = %s, want False", m.State())
	}
	// Replace from the affirm, then Rollback from the deny: the retained
	// DOM member is still notified (the interval that replaced this AID
	// with A_IDO must still be undone — it guessed a falsehood).
	wantKinds(t, out, msg.KindReplace, msg.KindRollback)
}

func TestDenyAfterFalseIsRedundant(t *testing.T) {
	m, out := drive(t, denyFrom(iidA), denyFrom(iidB))
	if m.State() != False {
		t.Fatalf("state = %s, want False", m.State())
	}
	wantKinds(t, out)
}

func TestDenyAfterTrueIsViolation(t *testing.T) {
	rec := trace.NewRecorder()
	m := NewMachine(testAID, rec)
	m.Step(affirmFrom(iidA))
	m.Step(denyFrom(iidB))
	if m.State() != True {
		t.Fatalf("state = %s, want True (deny of affirmed AID ignored)", m.State())
	}
	if rec.Count(trace.Violation) == 0 {
		t.Fatal("conflicting deny after affirm not traced as violation")
	}
}

// --- Retract (DESIGN.md §4.2) ---

func TestRetractReturnsMaybeToHot(t *testing.T) {
	m, out := drive(t,
		guessFrom(iidA),
		affirmFrom(iidB, depY),
		retractFrom(iidB),
	)
	if m.State() != Hot {
		t.Fatalf("state = %s, want Hot after retract", m.State())
	}
	if aido := m.AIDO(); len(aido) != 0 {
		t.Fatalf("A_IDO = %v, want empty after retract", aido)
	}
	// The retract revives the dependency in every DOM member.
	wantKinds(t, out, msg.KindReplace, msg.KindRevive)
	last := out[len(out)-1]
	if last.IID != iidA || last.AID != testAID {
		t.Fatalf("revive = %v, want revive of %s in %s", last, testAID, iidA)
	}
}

func TestRetractFromWrongIntervalIgnored(t *testing.T) {
	m, _ := drive(t,
		guessFrom(iidA),
		affirmFrom(iidB, depY),
		retractFrom(iidC), // not the affirmer
	)
	if m.State() != Maybe {
		t.Fatalf("state = %s, want Maybe (stale retract ignored)", m.State())
	}
}

func TestRetractInNonMaybeStatesIgnored(t *testing.T) {
	for _, setup := range []struct {
		name string
		msgs []*msg.Message
		want State
	}{
		{"cold", nil, Cold},
		{"hot", []*msg.Message{guessFrom(iidA)}, Hot},
		{"true", []*msg.Message{affirmFrom(iidB)}, True},
		{"false", []*msg.Message{denyFrom(iidB)}, False},
	} {
		t.Run(setup.name, func(t *testing.T) {
			m, _ := drive(t, append(setup.msgs, retractFrom(iidB))...)
			if m.State() != setup.want {
				t.Fatalf("state = %s, want %s", m.State(), setup.want)
			}
		})
	}
}

// --- Re-affirm after retract: a rolled-back speculative affirmer's
// re-execution can decide the assumption again ---

func TestReAffirmAfterRetract(t *testing.T) {
	m, out := drive(t,
		guessFrom(iidA),
		affirmFrom(iidB, depY),
		retractFrom(iidB),
		affirmFrom(iidC), // definite this time
	)
	if m.State() != True {
		t.Fatalf("state = %s, want True", m.State())
	}
	// Replace (speculative affirm), Revive (the retract reclaims every
	// dependent), then Replace-null (definite affirm).
	wantKinds(t, out, msg.KindReplace, msg.KindRevive, msg.KindReplace)
}

func TestDenyAfterRetract(t *testing.T) {
	m, out := drive(t,
		guessFrom(iidA),
		affirmFrom(iidB, depY),
		retractFrom(iidB),
		denyFrom(iidC),
	)
	if m.State() != False {
		t.Fatalf("state = %s, want False", m.State())
	}
	wantKinds(t, out, msg.KindReplace, msg.KindRevive, msg.KindRollback)
}

// --- State stringing and finality (API surface) ---

func TestStateProperties(t *testing.T) {
	for _, tt := range []struct {
		s     State
		str   string
		final bool
	}{
		{Cold, "Cold", false},
		{Hot, "Hot", false},
		{Maybe, "Maybe", false},
		{True, "True", true},
		{False, "False", true},
	} {
		if tt.s.String() != tt.str {
			t.Errorf("String(%d) = %s, want %s", tt.s, tt.s.String(), tt.str)
		}
		if tt.s.Final() != tt.final {
			t.Errorf("Final(%s) = %v, want %v", tt.str, tt.s.Final(), tt.final)
		}
	}
}

// TestUnknownMessageKindIsViolation: the machine survives junk.
func TestUnknownMessageKindIsViolation(t *testing.T) {
	rec := trace.NewRecorder()
	m := NewMachine(testAID, rec)
	out := m.Step(msg.Data(iidA.Proc, testAID.PID(), iidA, nil, "junk"))
	if len(out) != 0 {
		t.Fatalf("emitted %v for junk", out)
	}
	if rec.Count(trace.Violation) != 1 {
		t.Fatal("junk message not traced as violation")
	}
}

// --- Probe (retired engine-internal GC query) ---

// TestProbeInEveryState: the retired Probe kind still decodes but is no
// adjudication — from any state the machine answers nothing, keeps its
// state and DOM, and traces the junk as a violation.
func TestProbeInEveryState(t *testing.T) {
	for _, tt := range []struct {
		name  string
		setup []*msg.Message
		want  State
	}{
		{"cold", nil, Cold},
		{"maybe", []*msg.Message{guessFrom(iidA), affirmFrom(iidB, depY)}, Maybe},
		{"true", []*msg.Message{affirmFrom(iidB)}, True},
		{"false", []*msg.Message{denyFrom(iidB)}, False},
	} {
		t.Run(tt.name, func(t *testing.T) {
			rec := trace.NewRecorder()
			m := NewMachine(testAID, rec)
			for _, in := range tt.setup {
				m.Step(in)
			}
			dom := len(m.DOM())
			out := m.Step(&msg.Message{Kind: msg.KindProbe, From: iidC.Proc, To: testAID.PID(), AID: testAID})
			if len(out) != 0 {
				t.Fatalf("probe answered %v", out)
			}
			if m.State() != tt.want || len(m.DOM()) != dom {
				t.Fatalf("probe moved the machine to %s with DOM %v", m.State(), m.DOM())
			}
			if rec.Count(trace.Violation) != 1 {
				t.Fatal("probe not traced as a violation")
			}
		})
	}
}

// --- CutProbe (cycle-cut confirmation) ---

func cutProbeFrom(iid ids.IntervalID) *msg.Message {
	return msg.CutProbe(iid.Proc, iid, testAID)
}

func TestCutProbeAckedWhileMaybe(t *testing.T) {
	m, out := drive(t,
		guessFrom(iidA),
		affirmFrom(iidB, depY),
		cutProbeFrom(iidC),
	)
	last := out[len(out)-1]
	if last.Kind != msg.KindCutAck || last.IID != iidC {
		t.Fatalf("reply = %v, want CutAck to %s", last, iidC)
	}
	// The prober joins DOM so a later retract/deny still reaches it.
	found := false
	for _, d := range m.DOM() {
		if d == iidC {
			found = true
		}
	}
	if !found {
		t.Fatal("cut prober not recorded in DOM")
	}
}

func TestCutProbeAckedWhenTrue(t *testing.T) {
	_, out := drive(t,
		affirmFrom(iidB),
		cutProbeFrom(iidC),
	)
	last := out[len(out)-1]
	if last.Kind != msg.KindCutAck {
		t.Fatalf("reply = %v, want CutAck (cut of a True AID is moot)", last)
	}
}

func TestCutProbeRevivedWhenRetracted(t *testing.T) {
	_, out := drive(t,
		guessFrom(iidA),
		affirmFrom(iidB, depY),
		retractFrom(iidB), // Maybe -> Hot: the chain justifying any cut is void
		cutProbeFrom(iidC),
	)
	last := out[len(out)-1]
	if last.Kind != msg.KindRevive || last.IID != iidC {
		t.Fatalf("reply = %v, want Revive to %s", last, iidC)
	}
}

func TestCutProbeRolledBackWhenFalse(t *testing.T) {
	_, out := drive(t,
		denyFrom(iidB),
		cutProbeFrom(iidC),
	)
	last := out[len(out)-1]
	if last.Kind != msg.KindRollback {
		t.Fatalf("reply = %v, want Rollback", last)
	}
}
