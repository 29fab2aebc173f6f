package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
)

// waitQuiet polls Engine.Quiet until it reads true.
func waitQuiet(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(settleTimeout)
	for !e.Quiet() {
		if time.Now().After(deadline) {
			t.Fatal("engine never quiet")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestQuietSeesFrameInCompletedMailbox: a completed process is never
// visited by Quiet, so a frame for it must be seen through the machine's
// Pending count — queued, or in dispatch's hand — until it is handled.
// The process holds an unresolved guess, so it is not reaped and keeps
// its mailbox.
func TestQuietSeesFrameInCompletedMailbox(t *testing.T) {
	eng := newTestEngine(t, Config{})
	x, err := eng.NewAID()
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Guess(x)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, eng)
	if got := len(eng.snapshot(eng.active)); got != 0 {
		t.Fatalf("completed process still active (%d active)", got)
	}
	if eng.Process(p.PID()) != p {
		t.Fatal("completed speculative process was reaped")
	}

	// Hold the process lock: dispatch takes the first frame and blocks
	// in handleData, the second sits in the mailbox.
	p.mu.Lock()
	for i := 0; i < 2; i++ {
		eng.Net().Send(msg.Data(ids.NilPID, p.PID(), ids.IntervalID{}, nil, i))
	}
	quiet := eng.Quiet()
	p.mu.Unlock()
	if quiet {
		t.Fatal("Quiet with two frames unhandled at a completed process")
	}
	waitQuiet(t, eng)
}

// TestQuietSeesPendingReexecution: a completed process that is rolled
// back rejoins the active set and keeps Quiet false until it has run
// again.
func TestQuietSeesPendingReexecution(t *testing.T) {
	eng := newTestEngine(t, Config{})
	x, err := eng.NewAID()
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	gate := make(chan struct{})
	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Guess(x)
		if runs.Add(1) > 1 {
			<-gate // the re-execution holds here until released
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, eng)

	// Roll the guess interval back: from here until the re-execution
	// returns, the process is pending or running, never parked.
	p.mu.Lock()
	if p.history.Len() != 2 || !p.complete {
		p.mu.Unlock()
		t.Fatalf("want a completed process with a guess interval, history %d", p.history.Len())
	}
	p.rollbackLocked(p.history.Last())
	p.mu.Unlock()
	for i := 0; i < 3; i++ {
		if eng.Quiet() {
			t.Fatal("Quiet while a rolled-back process awaits re-execution")
		}
	}

	close(gate)
	waitQuiet(t, eng)
	if st := p.Snapshot(); !st.Completed || st.Restarts != 1 {
		t.Fatalf("after re-execution: %+v", st)
	}
}

// gatedPersister is a no-op Persister whose MessageConsumed blocks on
// gate for remote-origin frames: dispatch calls it outside the process
// lock, so it holds a frame in dispatch's hand without freezing the
// process itself.
type gatedPersister struct{ gate chan struct{} }

func (gatedPersister) JournalAppend(ids.PID, *journal.Entry)      {}
func (gatedPersister) IntervalOpen(ids.PID, *interval.Record)     {}
func (gatedPersister) IntervalState(ids.PID, *interval.Record)    {}
func (gatedPersister) IntervalFinalize(ids.PID, ids.IntervalID)   {}
func (gatedPersister) Rollback(ids.PID, ids.IntervalID)           {}
func (gatedPersister) DeadAID(ids.PID, ids.AID)                   {}
func (gatedPersister) Compact(ids.PID, ids.IntervalID, any) error { return nil }
func (gatedPersister) AutoDenied(ids.AID)                         {}
func (g gatedPersister) MessageConsumed(*msg.Message)             { <-g.gate }

// TestQuietSeesDataForRecvBlocked: a process blocked in Recv stays in
// the active set; data queued for it keeps Quiet false until the body
// has taken it and parked in Recv again.
func TestQuietSeesDataForRecvBlocked(t *testing.T) {
	g := gatedPersister{gate: make(chan struct{})}
	eng := newTestEngine(t, Config{Persist: g})
	got := make(chan any, 1)
	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		for {
			v, _, err := ctx.Recv()
			if err != nil {
				return err
			}
			got <- v
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, eng)
	if got := len(eng.snapshot(eng.active)); got != 1 {
		t.Fatalf("Recv-blocked process not active (%d active)", got)
	}

	// A stale Replace from a remote origin parks dispatch in the gated
	// persister; the data frame queues behind it.
	stale := msg.Replace(ids.AID(12345), ids.IntervalID{Proc: p.PID(), Seq: 99, Epoch: 1 << 30}, nil)
	stale.SrcNode, stale.SrcSeq = 1, 1
	eng.Net().Send(stale)
	eng.Net().Send(msg.Data(ids.NilPID, p.PID(), ids.IntervalID{}, nil, "queued"))
	for i := 0; i < 3; i++ {
		if eng.Quiet() {
			t.Fatal("Quiet with data queued for a Recv-blocked process")
		}
	}
	close(g.gate)
	if v := <-got; v != "queued" {
		t.Fatalf("received %v", v)
	}
	waitQuiet(t, eng)
}

// BenchmarkQuiet measures Engine.Quiet against the number of completed
// processes the engine still tracks: it must not grow with them.
func BenchmarkQuiet(b *testing.B) {
	for _, n := range []int{10, 10000} {
		b.Run(fmt.Sprintf("completed=%d", n), func(b *testing.B) {
			eng := benchEngine(b)
			for i := 0; i < n; i++ {
				if _, err := eng.SpawnRoot(func(ctx *Ctx) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
			if !eng.Settle(settleTimeout) {
				b.Fatal("no settle")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !eng.Quiet() {
					b.Fatal("not quiet")
				}
			}
		})
	}
}

// BenchmarkSpeculativeAIDs measures the liveness layer's speculation
// scan (the one DenyOwned, fanoutDenied and the lease sweeper share)
// against the number of completed processes: they are reaped, so it
// must not grow with them.
func BenchmarkSpeculativeAIDs(b *testing.B) {
	for _, n := range []int{10, 10000} {
		b.Run(fmt.Sprintf("completed=%d", n), func(b *testing.B) {
			eng := benchEngine(b)
			for i := 0; i < n; i++ {
				if _, err := eng.SpawnRoot(func(ctx *Ctx) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
			if !eng.Settle(settleTimeout) {
				b.Fatal("no settle")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := eng.SpeculativeAIDs(); len(got) != 0 {
					b.Fatalf("%d speculative AIDs", len(got))
				}
			}
		})
	}
}
