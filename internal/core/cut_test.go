package core

import (
	"slices"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
)

// These tests pin when a UDO hit costs a CutProbe round trip (DESIGN.md
// §4.9, "Cut confirmation"). Each is gated, not timed: the scenario is
// driven by injecting Affirm/Retract messages at real AID machines, and
// every step waits for the interval state the previous one produces, so
// the per-interval message order is fixed. The target is I2, the
// interval a process opens by guessing x1 then x2: IDO {x1, x2}, or
// {w, x1, x2} when the rig holds it on an assumption w nobody decides.

// revocableStability is a commit watermark that never covers anything:
// with it set True is revocable and every UDO hit must be probed.
type revocableStability struct{}

func (revocableStability) Opened(uint32)       {}
func (revocableStability) Issued(uint32)       {}
func (revocableStability) Settled(uint32)      {}
func (revocableStability) Revoked(uint32)      {}
func (revocableStability) Covered(uint32) bool { return false }
func (revocableStability) Emitted(uint32)      {}

// affirmerIID is the interval the injected affirms claim to come from.
var affirmerIID = ids.IntervalID{Proc: 1 << 30, Seq: 1, Epoch: 1}

type cutRig struct {
	t         *testing.T
	eng       *Engine
	w, x1, x2 ids.AID
	p         *Process
}

func newCutRig(t *testing.T, revocable, held bool) *cutRig {
	cfg := Config{}
	if revocable {
		cfg.Stability = revocableStability{}
	}
	r := &cutRig{t: t, eng: newTestEngine(t, cfg)}
	r.w, _ = r.eng.NewAID()
	r.x1, _ = r.eng.NewAID()
	r.x2, _ = r.eng.NewAID()
	p, err := r.eng.SpawnRoot(func(ctx *Ctx) error {
		if held {
			ctx.Guess(r.w)
		}
		ctx.Guess(r.x1)
		ctx.Guess(r.x2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r.p = p
	r.waitI2("I2 opened", func(IntervalInfo) bool { return true })
	if !r.eng.Settle(settleTimeout) {
		t.Fatal("no settle after the guesses")
	}
	return r
}

// i2 returns the interval that guessed x2.
func (r *cutRig) i2() (IntervalInfo, bool) {
	for _, ii := range r.p.HistorySnapshot() {
		if ii.GuessAID == r.x2 {
			return ii, true
		}
	}
	return IntervalInfo{}, false
}

func (r *cutRig) waitI2(what string, cond func(IntervalInfo) bool) IntervalInfo {
	r.t.Helper()
	var last IntervalInfo
	waitCond(r.t, 10*time.Second, what, func() bool {
		ii, ok := r.i2()
		last = ii
		return ok && cond(ii)
	})
	return last
}

// affirm makes machine x Maybe on basis (True when basis is empty); it
// fans Replace(x → basis) out to its DOM, I2 included.
func (r *cutRig) affirm(x ids.AID, basis ...ids.AID) {
	r.eng.Net().Send(msg.Affirm(affirmerIID.Proc, affirmerIID, x, basis))
}

func (r *cutRig) probes() uint64 { return r.eng.Net().Stats().CutProbe }

// (i) Replace(x1→∅) then Replace(x2→{x1}): the UDO hit on x1 is on an
// assumption I2 saw affirmed, so it is discharged in place and I2
// finalizes with no CutProbe sent.
func TestCutDischargedWhenAffirmed(t *testing.T) {
	r := newCutRig(t, false, false)
	r.affirm(r.x1)
	r.waitI2("x1 affirmed at I2", func(ii IntervalInfo) bool { return slices.Contains(ii.Affirmed, r.x1) })
	r.affirm(r.x2, r.x1)
	ii := r.waitI2("I2 definite", func(ii IntervalInfo) bool { return ii.Definite })
	if n := r.probes(); n != 0 {
		t.Fatalf("%d CutProbes sent, want 0", n)
	}
	if len(ii.Cut) != 0 || len(ii.IDO) != 0 {
		t.Fatalf("definite I2 holds IDO=%v Cut=%v", ii.IDO, ii.Cut)
	}
}

// (ii) The same two messages with the watermark on: True is revocable,
// so the cut is confirmed by one CutProbe and I2 finalizes on the CutAck.
func TestCutProbedWhenTrueRevocable(t *testing.T) {
	r := newCutRig(t, true, false)
	r.affirm(r.x1)
	// Recorded in either mode; only TrueFinal acts on it.
	r.waitI2("x1 affirmed at I2", func(ii IntervalInfo) bool { return slices.Contains(ii.Affirmed, r.x1) })
	r.affirm(r.x2, r.x1)
	r.waitI2("I2 definite", func(ii IntervalInfo) bool { return ii.Definite })
	st := r.eng.Net().Stats()
	if st.CutProbe != 1 || st.CutAck != 1 {
		t.Fatalf("CutProbe=%d CutAck=%d, want 1 and 1", st.CutProbe, st.CutAck)
	}
}

// (iii) Replace(x1→{z}) then Replace(x2→{x1}): x1 left I2's IDO through a
// conditional affirm, a chain-or-ring ambiguity, so its cut is probed.
func TestCutProbedWhenRetiredByChain(t *testing.T) {
	r := newCutRig(t, false, false)
	z, _ := r.eng.NewAID()
	r.affirm(r.x1, z)
	r.waitI2("x1 replaced by z at I2", func(ii IntervalInfo) bool { return slices.Contains(ii.IDO, z) })
	r.affirm(r.x2, r.x1)
	ii := r.waitI2("the cut of x1 confirmed", func(ii IntervalInfo) bool {
		return !slices.Contains(ii.IDO, r.x2) && len(ii.Cut) == 0
	})
	if n := r.probes(); n != 1 {
		t.Fatalf("%d CutProbes sent, want 1", n)
	}
	if ii.Definite || !slices.Equal(ii.IDO, []ids.AID{z}) || len(ii.Affirmed) != 0 {
		t.Fatalf("I2 = %+v, want speculative on {z} with nothing affirmed", ii)
	}
}

// (iv) A Revive of an affirmed member clears the record: the member is a
// live dependency again. Revive follows True only in revocable mode,
// where a Retract of the affirm that produced True reverts the machine
// to Hot and it revives its whole DOM. The rig holds I2's predecessors on
// w so none of them is a definite interval the Revive would revoke.
func TestReviveClearsAffirmed(t *testing.T) {
	r := newCutRig(t, true, true)
	r.affirm(r.x1)
	r.waitI2("x1 affirmed at I2", func(ii IntervalInfo) bool { return slices.Contains(ii.Affirmed, r.x1) })
	r.eng.Net().Send(msg.Retract(affirmerIID.Proc, affirmerIID, r.x1))
	ii := r.waitI2("x1 revived at I2", func(ii IntervalInfo) bool { return slices.Contains(ii.IDO, r.x1) })
	if len(ii.Affirmed) != 0 || slices.Contains(ii.UDO, r.x1) {
		t.Fatalf("revived I2 still records x1: UDO=%v Affirmed=%v", ii.UDO, ii.Affirmed)
	}
	if st := r.p.Snapshot(); st.Restarts != 0 {
		t.Fatalf("the revive rolled the process back %d times", st.Restarts)
	}
}
