package stability_test

import (
	"sync"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/netsim"
	"github.com/hope-dist/hope/internal/stability"
)

// TestDemandRoundsUnderLoad runs a closed loop of watermark-gated jobs
// between two engines, with agents at a 10 ms fallback cadence, and
// reads the initiator's round counters. Every job's output must be
// released, and rounds per job must stay bounded: a round that ends at
// sweep one is not retried, so a busy cluster cannot make the agents
// spin. Each job is one assumption minted on node 1, guessed there by a
// process that externalizes its outcome, and affirmed from node 0.
func TestDemandRoundsUnderLoad(t *testing.T) {
	const jobs = 200
	net := netsim.New(netsim.Constant(100 * time.Microsecond))
	defer net.Close()

	var (
		mu     sync.Mutex
		agents = map[int]*stability.Agent{}
	)
	send := func(from, to int, b []byte) bool {
		mu.Lock()
		a := agents[to]
		mu.Unlock()
		if a == nil {
			return false
		}
		go a.HandlePayload(from, b)
		return true
	}
	engines := map[int]*core.Engine{}
	for _, n := range []int{0, 1} {
		n := n
		tr := stability.NewTracker(n)
		eng := core.NewEngine(core.Config{
			Transport: &gatedNet{Transport: net, g: &gate{}},
			PIDBase:   ids.PID(n) << windowPIDBits,
			Stability: tr,
		})
		defer eng.Shutdown()
		engines[n] = eng
		a := stability.NewAgent(stability.Config{
			Node:    n,
			Tracker: tr,
			Members: func() (uint64, []int) { return 1, []int{0, 1} },
			Send:    func(to int, b []byte) bool { return send(n, to, b) },
			// The shared simulated net stands in for the wire's drain
			// check: nothing in flight anywhere.
			Quiet:     func() bool { return net.Inflight() == 0 && eng.Quiet() },
			Interval:  10 * time.Millisecond,
			OnAdvance: func(uint64, map[int]uint32) { eng.FlushStable() },
		})
		mu.Lock()
		agents[n] = a
		mu.Unlock()
	}
	for _, a := range agents {
		a.Start()
		defer a.Stop()
	}

	released := make(chan bool, 1)
	for j := 0; j < jobs; j++ {
		x, err := engines[1].NewAID()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engines[1].SpawnRoot(func(ctx *core.Ctx) error {
			ok := ctx.Guess(x)
			ctx.Externalize(func() { released <- ok })
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := engines[0].SpawnRoot(func(ctx *core.Ctx) error {
			ctx.Affirm(x)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case ok := <-released:
			if !ok {
				t.Fatalf("job %d released a denied outcome", j)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d: output never released (initiator %v)", j, agents[0].Stats())
		}
	}

	st := agents[0].Stats()
	perJob := float64(st.Rounds) / jobs
	t.Logf("%d jobs: initiator %v — %.2f rounds/job, %.0f%% of rounds ended at sweep one",
		jobs, st, perJob, 100*float64(st.Sweep1Ends)/float64(st.Rounds))
	if st.Advances == 0 || perJob > 10 {
		t.Fatalf("initiator %v over %d jobs: want advances and at most 10 rounds per job", st, jobs)
	}
}
