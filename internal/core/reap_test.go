package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
)

// consumedRecorder is a no-op Persister that records every frame
// retired through MessageConsumed.
type consumedRecorder struct {
	mu   sync.Mutex
	msgs []*msg.Message
}

func (*consumedRecorder) JournalAppend(ids.PID, *journal.Entry)      {}
func (*consumedRecorder) IntervalOpen(ids.PID, *interval.Record)     {}
func (*consumedRecorder) IntervalState(ids.PID, *interval.Record)    {}
func (*consumedRecorder) IntervalFinalize(ids.PID, ids.IntervalID)   {}
func (*consumedRecorder) Rollback(ids.PID, ids.IntervalID)           {}
func (*consumedRecorder) DeadAID(ids.PID, ids.AID)                   {}
func (*consumedRecorder) Compact(ids.PID, ids.IntervalID, any) error { return nil }
func (*consumedRecorder) AutoDenied(ids.AID)                         {}
func (r *consumedRecorder) MessageConsumed(m *msg.Message) {
	r.mu.Lock()
	r.msgs = append(r.msgs, m)
	r.mu.Unlock()
}

func (r *consumedRecorder) consumed(m *msg.Message) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.msgs {
		if c == m {
			return true
		}
	}
	return false
}

// coverableStability is a commit watermark whose frontier the test moves.
type coverableStability struct{ frontier atomic.Uint32 }

func (*coverableStability) Opened(uint32)  {}
func (*coverableStability) Issued(uint32)  {}
func (*coverableStability) Settled(uint32) {}
func (*coverableStability) Revoked(uint32) {}
func (*coverableStability) Emitted(uint32) {}
func (s *coverableStability) Covered(epoch uint32) bool {
	return epoch <= s.frontier.Load()
}

// spawnAffirmedGuesser spawns a process that guesses a fresh assumption
// and returns, then affirms the assumption, so the process completes
// with a root and a guess interval, both definite.
func spawnAffirmedGuesser(t *testing.T, eng *Engine) (*Process, ids.AID) {
	t.Helper()
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
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Affirm(x)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	if st := p.Snapshot(); !st.Completed || !st.AllDefinite || st.Intervals != 2 {
		t.Fatalf("guesser did not finish definite: %+v", st)
	}
	return p, x
}

// TestReapedProcessKeepsVerdicts: frames reaching a reaped process get
// the verdict the live process would have given. A Rollback or Revive
// aimed at a surviving (definite) interval is a violation, a stale
// target is dropped silently, Data is dropped and retired in the WAL,
// and a kind no user process handles is the dispatch violation.
func TestReapedProcessKeepsVerdicts(t *testing.T) {
	per := &consumedRecorder{}
	eng := newTestEngine(t, Config{Persist: per})
	p, x := spawnAffirmedGuesser(t, eng)
	if eng.Process(p.PID()) != nil {
		t.Fatal("finished definite process was not reaped")
	}
	hist := p.HistorySnapshot()
	before := eng.Violations()
	send := func(m *msg.Message) int64 {
		t.Helper()
		eng.Net().Send(m)
		if !eng.Settle(settleTimeout) {
			t.Fatal("no settle")
		}
		v := eng.Violations() - before
		before = eng.Violations()
		return v
	}

	if v := send(msg.Rollback(x, hist[1].ID)); v != 1 {
		t.Errorf("rollback of a surviving interval: %d violations, want 1", v)
	}
	if v := send(msg.Revive(x, hist[0].ID)); v != 1 {
		t.Errorf("revive of a surviving interval: %d violations, want 1", v)
	}
	stale := ids.IntervalID{Proc: p.PID(), Seq: 99, Epoch: 1 << 30}
	if v := send(msg.Rollback(x, stale)); v != 0 {
		t.Errorf("stale-target rollback: %d violations, want 0", v)
	}
	if v := send(msg.Revive(x, stale)); v != 0 {
		t.Errorf("stale-target revive: %d violations, want 0", v)
	}
	if v := send(msg.Replace(x, hist[1].ID, nil)); v != 0 {
		t.Errorf("replace: %d violations, want 0", v)
	}
	data := msg.Data(ids.NilPID, p.PID(), ids.IntervalID{}, nil, "late")
	data.SrcNode, data.SrcSeq = 2, 7
	if v := send(data); v != 0 {
		t.Errorf("data: %d violations, want 0", v)
	}
	if !per.consumed(data) {
		t.Error("data frame to a reaped process not retired in the WAL")
	}
	if v := send(msg.Guess(ids.NilPID, hist[0].ID, ids.AID(p.PID()))); v != 1 {
		t.Errorf("guess at a user process: %d violations, want 1", v)
	}
	if st := p.Snapshot(); !st.Completed || st.Terminated || st.Restarts != 0 {
		t.Fatalf("reaped process changed: %+v", st)
	}
}

// TestReapWaitsForCoverage: with the watermark on, a finished definite
// process stays until the frontier covers it. Until then a Rollback
// still revokes it and it re-executes; once covered, FlushStable reaps it.
func TestReapWaitsForCoverage(t *testing.T) {
	st := &coverableStability{}
	eng := newTestEngine(t, Config{Stability: st})
	p, x := spawnAffirmedGuesser(t, eng)
	if eng.Process(p.PID()) != p {
		t.Fatal("uncovered process was reaped")
	}
	eng.FlushStable()
	if eng.Process(p.PID()) != p {
		t.Fatal("uncovered process was reaped by FlushStable")
	}

	hist := p.HistorySnapshot()
	eng.Net().Send(msg.Rollback(x, hist[1].ID))
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle after rollback")
	}
	s := p.Snapshot()
	if s.Restarts != 1 || !s.Completed || !s.AllDefinite {
		t.Fatalf("uncovered definite process not revoked and re-run: %+v", s)
	}
	if v := eng.Violations(); v != 0 {
		t.Fatalf("%d violations revoking an uncovered interval", v)
	}
	if eng.Process(p.PID()) != p {
		t.Fatal("re-executed uncovered process was reaped")
	}

	var minEpoch, maxEpoch uint32 = ^uint32(0), 0
	for _, ii := range p.HistorySnapshot() {
		minEpoch, maxEpoch = min(minEpoch, ii.ID.Epoch), max(maxEpoch, ii.ID.Epoch)
	}
	if minEpoch == maxEpoch {
		t.Fatalf("history has one epoch, %d", minEpoch)
	}
	st.frontier.Store(maxEpoch - 1)
	eng.FlushStable()
	if eng.Process(p.PID()) != p {
		t.Fatal("process reaped with its newest interval uncovered")
	}
	st.frontier.Store(maxEpoch)
	eng.FlushStable()
	if eng.Process(p.PID()) != nil {
		t.Fatal("covered process not reaped by FlushStable")
	}
	if n := len(eng.snapshot(eng.uncovered)); n != 0 {
		t.Fatalf("%d processes left in the uncovered set", n)
	}
}

// TestReapReleasesGoroutines: finished processes leave no runner or
// dispatch goroutine behind, and the engine forgets them. Each gets one
// remote-origin data frame that races its completion and reaping: queued
// unreceived, drained after the close, or answered by the tombstone,
// every one is retired in the WAL exactly once.
func TestReapReleasesGoroutines(t *testing.T) {
	per := &consumedRecorder{}
	eng := newTestEngine(t, Config{Persist: per})
	base := runtime.NumGoroutine()
	const n = 1000
	for i := 0; i < n; i++ {
		p, err := eng.SpawnRoot(func(ctx *Ctx) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		m := msg.Data(ids.NilPID, p.PID(), ids.IntervalID{}, nil, i)
		m.SrcNode, m.SrcSeq = 2, uint64(i+1)
		eng.Net().Send(m)
	}
	if !eng.Settle(settleTimeout) {
		t.Fatal("no settle")
	}
	deadline := time.Now().Add(settleTimeout)
	for runtime.NumGoroutine() > base+20 {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d finished processes, baseline %d",
				runtime.NumGoroutine(), n, base)
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(eng.Processes()); got != 0 {
		t.Fatalf("%d processes still tracked", got)
	}
	per.mu.Lock()
	defer per.mu.Unlock()
	seen := make(map[uint64]bool, n)
	for _, m := range per.msgs {
		if seen[m.SrcSeq] {
			t.Fatalf("data frame %d retired twice", m.SrcSeq)
		}
		seen[m.SrcSeq] = true
	}
	if len(seen) != n {
		t.Fatalf("%d of %d data frames retired", len(seen), n)
	}
}
