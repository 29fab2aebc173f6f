package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/hope-dist/hope/internal/aid"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
)

// tableEvents returns the Violation and Info events rec holds, from the
// skip-th on: the AID table's verdicts on a conflicting or dropped
// adjudication.
func tableEvents(rec *trace.Recorder, skip int) []string {
	var out []string
	for _, e := range rec.Events() {
		if e.Kind == trace.Violation || e.Kind == trace.Info {
			out = append(out, e.String())
		}
	}
	return out[min(skip, len(out)):]
}

func frameString(m *msg.Message) string {
	return fmt.Sprintf("%v %v->%v %v %v ido=%v", m.Kind, m.From, m.To, m.IID, m.AID, m.IDO)
}

// TestReclaimedVerdictAnswersAsLiveMachine is the differential test of
// serving-path reclamation (DESIGN.md §4 item 10). For every reclaimable
// verdict and every message a late frame can carry, a table that dropped
// the machine answers exactly as one that still hosts it: the same
// outputs and the same Violation and Info traces. Each message is sent
// twice, in separate drains, so a repeat of a conflicting adjudication is
// compared too (the live applied set drops it). The live side steps the
// table directly, which never reaches the reclaim that follows a drain;
// the reclaimed side goes through the transport.
func TestReclaimedVerdictAnswersAsLiveMachine(t *testing.T) {
	remote := ids.PID(1 << 30)
	dep := ids.IntervalID{Proc: remote, Seq: 1, Epoch: 1}
	decider := ids.IntervalID{Proc: remote + 1, Seq: 1, Epoch: 1}
	late := ids.IntervalID{Proc: remote + 2, Seq: 1, Epoch: 1}

	verdicts := []struct {
		name      string
		stability Stability
		decide    func(x ids.AID) *msg.Message
		want      aid.State
	}{
		{"true", nil, func(x ids.AID) *msg.Message { return msg.Affirm(decider.Proc, decider, x, nil) }, aid.True},
		{"false", nil, func(x ids.AID) *msg.Message { return msg.Deny(decider.Proc, decider, x) }, aid.False},
		{"false-revocable", revocableStability{}, func(x ids.AID) *msg.Message { return msg.Deny(decider.Proc, decider, x) }, aid.False},
	}
	messages := []struct {
		name string
		m    func(x ids.AID) *msg.Message
	}{
		{"guess", func(x ids.AID) *msg.Message { return msg.Guess(late.Proc, late, x) }},
		{"cutprobe", func(x ids.AID) *msg.Message { return msg.CutProbe(late.Proc, late, x) }},
		{"affirm", func(x ids.AID) *msg.Message { return msg.Affirm(late.Proc, late, x, nil) }},
		{"deny", func(x ids.AID) *msg.Message { return msg.Deny(late.Proc, late, x) }},
		{"lease-deny", func(x ids.AID) *msg.Message { return msg.Deny(x.PID(), ids.NilInterval, x) }},
		{"retract", func(x ids.AID) *msg.Message { return msg.Retract(decider.Proc, decider, x) }},
	}
	for _, v := range verdicts {
		for _, mm := range messages {
			t.Run(v.name+"/"+mm.name, func(t *testing.T) {
				liveTrace := trace.NewRecorder()
				live := newTestEngine(t, Config{Stability: v.stability, Tracer: liveTrace})
				x, err := live.NewAID()
				if err != nil {
					t.Fatal(err)
				}
				live.router.apply(msg.Guess(dep.Proc, dep, x))
				live.router.apply(v.decide(x))
				if exp := live.HostedExports(); len(exp) != 1 || exp[0].State != v.want {
					t.Fatalf("live table hosts %+v, want one %v machine", exp, v.want)
				}
				skip := len(tableEvents(liveTrace, 0))
				var want []string
				for range 2 {
					for _, out := range live.router.apply(mm.m(x)) {
						want = append(want, frameString(out))
					}
				}
				wantTrace := tableEvents(liveTrace, skip)

				gotTrace := trace.NewRecorder()
				eng := newTestEngine(t, Config{Stability: v.stability, Tracer: gotTrace})
				if y, _ := eng.NewAID(); y != x {
					t.Fatalf("engines minted %v and %v", x, y)
				}
				var mu sync.Mutex
				var got []string
				for _, pid := range []ids.PID{dep.Proc, decider.Proc, late.Proc} {
					eng.Net().Register(pid, func(m *msg.Message) {
						mu.Lock()
						got = append(got, frameString(m))
						mu.Unlock()
					})
				}
				eng.Net().Send(msg.Guess(dep.Proc, dep, x))
				eng.Net().Send(v.decide(x))
				if !eng.Settle(settleTimeout) {
					t.Fatal("no settle after the verdict")
				}
				if r := eng.RoutingStats().Reclaimed; r != 1 {
					t.Fatalf("Reclaimed = %d after the verdict, want 1", r)
				}
				if exp := eng.HostedExports(); len(exp) != 0 {
					t.Fatalf("reclaimed table still hosts %+v", exp)
				}
				if st, ok := eng.HostedState(x); !ok || st != v.want {
					t.Fatalf("HostedState = %v, %v; want %v, true", st, ok, v.want)
				}
				mu.Lock()
				got = nil // the verdict's fan-out to dep
				mu.Unlock()
				skip = len(tableEvents(gotTrace, 0))
				for range 2 {
					eng.Net().Send(mm.m(x))
					if !eng.Settle(settleTimeout) {
						t.Fatal("no settle after the late frame")
					}
				}

				mu.Lock()
				defer mu.Unlock()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("reclaimed table sent %v, live machine %v", got, want)
				}
				if g := tableEvents(gotTrace, skip); fmt.Sprint(g) != fmt.Sprint(wantTrace) {
					t.Fatalf("reclaimed table traced %v, live machine %v", g, wantTrace)
				}
				if d := eng.Net().Stats().Dead; d != 0 {
					t.Fatalf("%d dead letters", d)
				}
			})
		}
	}
}

// TestRevocableTrueStaysHosted: with a Stability a True verdict can still
// be revoked by a Retract or Deny that must reach its DOM, so the table
// keeps the machine.
func TestRevocableTrueStaysHosted(t *testing.T) {
	eng := newTestEngine(t, Config{Stability: revocableStability{}})
	x, err := eng.NewAID()
	if err != nil {
		t.Fatal(err)
	}
	eng.Net().Send(msg.Affirm(affirmerIID.Proc, affirmerIID, x, nil))
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	if r := eng.RoutingStats().Reclaimed; r != 0 {
		t.Fatalf("Reclaimed = %d, want the revocable True machine kept", r)
	}
	if exp := eng.HostedExports(); len(exp) != 1 || exp[0].State != aid.True {
		t.Fatalf("table hosts %+v, want the True machine", exp)
	}
}
