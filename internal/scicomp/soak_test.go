package scicomp

// Soak hunt for the residual premature-commit race (DESIGN.md §4.9).
// Gated behind HOPE_SOAK because a full hunt runs hundreds of complete
// systems; the checked-in test suite exercises the same machinery with
// bounded retries (see runWithRetry).
//
//	HOPE_SOAK=1 go test -run TestSoakResidualCommitRace -v ./internal/scicomp/

import (
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/netsim"
)

func TestSoakResidualCommitRace(t *testing.T) {
	if os.Getenv("HOPE_SOAK") == "" {
		t.Skip("soak hunt; set HOPE_SOAK=1 to run")
	}
	const rounds = 300
	var stalls, violatedRounds, violations int
	for round := 0; round < rounds; round++ {
		cfg := Config{Workers: 3, CellsPerWorker: 6, Iterations: 15, Tolerance: 0, Window: 3}
		var latency netsim.LatencyModel
		switch round % 3 {
		case 1:
			latency = netsim.Constant(100 * time.Microsecond)
		case 2:
			latency = netsim.NewUniform(0, 200*time.Microsecond, int64(round))
		}
		eng := core.NewEngine(core.Config{Transport: netsim.New(latency)})
		cluster, err := NewCluster(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.Settle(5 * time.Second)
		_, err = cluster.Result()
		v := int(eng.Violations())
		if v > 0 {
			violatedRounds++
			violations += v
		}
		if err != nil {
			stalls++
			t.Logf("round %d stalled (violations=%d): %v", round, v, err)
		}
		eng.Shutdown()
	}
	fmt.Printf("soak: stalls %d/%d rounds, violations %d in %d/%d rounds\n",
		stalls, rounds, violations, violatedRounds, rounds)
	if stalls > rounds/50 {
		t.Fatalf("stall rate regressed: %d/%d", stalls, rounds)
	}
}
