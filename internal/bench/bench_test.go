package bench

// Smoke tests for the experiment harness: each runner must produce sane
// rows on minimal configurations, guarding the harness against rot
// independently of the root-level benchmarks.

import (
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/phold"
)

func TestRunE1Smoke(t *testing.T) {
	res, err := RunE1(200*time.Microsecond, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pessimistic <= 0 || res.Optimistic <= 0 {
		t.Fatalf("degenerate timings: %+v", res)
	}
	if res.Optimistic >= res.Pessimistic {
		t.Fatalf("optimism lost on perfect predictions: %+v", res)
	}
	if res.Rollbacks != 0 {
		t.Fatalf("rollbacks on perfect predictions: %+v", res)
	}
}

func TestRunE3Smoke(t *testing.T) {
	res, err := RunE3(2, interval.Algorithm2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Settled {
		t.Fatalf("algorithm 2 did not settle the 2-ring: %+v", res)
	}
	if res.Control == 0 {
		t.Fatal("no control traffic recorded")
	}
}

func TestRunE3LivelockWindow(t *testing.T) {
	res, err := RunE3(2, interval.Algorithm1, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Settled {
		t.Fatalf("algorithm 1 settled a cycle: %+v", res)
	}
}

func TestRunE5QuadraticShape(t *testing.T) {
	small, err := RunE5(4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunE5(8)
	if err != nil {
		t.Fatal(err)
	}
	// Quadratic growth: doubling the chain should far more than double
	// the messages (24 → 80 in the closed form).
	if big.Control < 3*small.Control {
		t.Fatalf("growth not quadratic: %d -> %d", small.Control, big.Control)
	}
}

// TestStreamedCutResidue: on streamed-RPC jobs (R = 8, netsim) an
// interval that saw an assumption affirmed no longer pays a CutProbe
// round trip to re-confirm it; what is left is the chain-or-ring residue
// — UDO members retired by a conditional affirm. With a watermark set the
// engine still probes every UDO hit, as every engine did before the
// discharge, and its counts match the parent commit's (200 jobs at 50 µs:
// 34–112 probes per job against the parent's 32–116). Jobs alternate
// between the two modes so both see the same host. Measured
// discharging/probing ratio over 30 runs of 8 jobs per mode: 0.60–0.82
// (median 0.71) by default, 0.61–0.78 under -race, 0.72–0.73 at
// GOMAXPROCS=1; the test runs twice the jobs against a 0.9 bound.
func TestStreamedCutResidue(t *testing.T) {
	const jobs, reports = 16, 8
	var discharged, probed uint64
	for i := 0; i < jobs; i++ {
		for _, revocable := range []bool{false, true} {
			st, err := RunStreamedCuts(interval.Algorithm2, revocable, reports)
			if err != nil {
				t.Fatal(err)
			}
			if st.CutAck != st.CutProbe || st.Revive != 0 {
				t.Fatalf("never-denied job answered its probes oddly: %v", st)
			}
			if revocable {
				probed += st.CutProbe
			} else {
				discharged += st.CutProbe
			}
		}
	}
	if ratio := float64(discharged) / float64(probed); ratio > 0.9 {
		t.Fatalf("CutProbes: %d discharging vs %d probing every UDO hit (ratio %.2f > 0.9)", discharged, probed, ratio)
	}
}

func TestRunE6Smoke(t *testing.T) {
	res, err := RunE6(2, 0, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimistic >= res.Pessimistic {
		t.Fatalf("no pipeline win at depth 2: %+v", res)
	}
}

func TestRunE7Smoke(t *testing.T) {
	res, err := RunE7(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rollbacks != 0 {
		t.Fatalf("conflict-free reads rolled back: %+v", res)
	}
	if res.Optimistic >= res.Pessimistic {
		t.Fatalf("local reads not faster: %+v", res)
	}
}

func TestRunE8Smoke(t *testing.T) {
	cfg := phold.Config{LPs: 2, InitialEvents: 1, End: 30, MaxDelay: 5, Seed: 9}
	res, err := RunE8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Fatalf("engines disagree with the reference: %+v", res)
	}
	if res.Events == 0 {
		t.Fatal("degenerate workload")
	}
}

func TestRunE9Smoke(t *testing.T) {
	res, err := RunE9(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.GuessTime <= 0 {
		t.Fatalf("no guess timing: %+v", res)
	}
	// Wait-freedom: a guess must not cost anywhere near a network round
	// trip even under 5ms latency.
	slow, err := RunE9(5*time.Millisecond, 8)
	if err != nil {
		t.Fatal(err)
	}
	if slow.GuessTime > time.Millisecond {
		t.Fatalf("guess scaled with network latency: %v", slow.GuessTime)
	}
}

func TestRunE10Smoke(t *testing.T) {
	res, err := RunE10Retry(0, 100*time.Microsecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxError != 0 {
		t.Fatalf("exact tolerance committed error %v", res.MaxError)
	}
}

func TestRunE11Smoke(t *testing.T) {
	res, err := RunE11(2, true, 300*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FinalOK {
		t.Fatalf("lost updates detected: %+v", res)
	}
	if res.Locked <= 0 || res.Optimistic <= 0 {
		t.Fatalf("degenerate timings: %+v", res)
	}
}
