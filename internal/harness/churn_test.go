package harness

import (
	"testing"
	"time"
)

// TestRunChurn is the end-to-end membership trial: a 3-node cluster
// bootstrapped from one seed, workloads speculating against every
// member, one member SIGKILLed mid-speculation, a replacement joined —
// and the ownership oracle over the final views. A failure in any
// layer (gossip piggyback, detector feed, sticky death, handoff
// denial, ring agreement) surfaces here as a named invariant, not as a
// hang.
func TestRunChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes; skipped in -short")
	}
	res, err := RunChurn(ChurnConfig{
		Setup: Setup{Seed: 3, Nodes: 3, HopedBin: buildHoped(t), Reports: 24, Log: testWriter{t}},
	})
	if err != nil {
		t.Fatalf("churn storm failed (replay with seed 3): %v", err)
	}
	if res.Killed == 0 || res.Joined == 0 {
		t.Fatalf("churn storm killed %d / joined %d, want both nonzero", res.Killed, res.Joined)
	}
	if len(res.Detect) != 2 {
		t.Fatalf("expected 2 survivor detection samples, got %v", res.Detect)
	}
	for _, d := range res.Detect {
		if d > 20*time.Second {
			t.Fatalf("detection took %v, far beyond the configured dead-after", d)
		}
	}
	if res.JoinShare <= 0 {
		t.Fatalf("joiner owns no ring share: %+v", res)
	}
	t.Logf("churn ok: killed=%d joined=%d detect p50=%v p99=%v resolve=%v joinlag=%v share=%.2f rollbacks=%d denied=%d epoch=%d live=%v",
		res.Killed, res.Joined, res.DetectP50, res.DetectP99, res.Resolve, res.JoinLag,
		res.JoinShare, res.Rollbacks, res.AutoDenied, res.FinalEpoch, res.FinalLive)
}
