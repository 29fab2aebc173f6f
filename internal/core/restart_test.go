package core

import (
	"sync"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
)

// blockRestart holds the runner of the first process that reports a
// Restart event, between its wakeup and the re-execution it starts.
type blockRestart struct {
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func (b *blockRestart) Emit(e trace.Event) {
	if e.Kind != trace.Restart {
		return
	}
	b.once.Do(func() {
		close(b.held)
		<-b.release
	})
}

// TestSnapshotNotCompletedWhilePendingRestart pins Status.Completed
// across the gap between a rollback of a completed process and the
// runner restarting its body. In that gap the truncated history can be
// all-definite, so a Completed flag that still read true would let a
// caller take the process for committed and finished.
func TestSnapshotNotCompletedWhilePendingRestart(t *testing.T) {
	tr := &blockRestart{held: make(chan struct{}), release: make(chan struct{})}
	eng := newTestEngine(t, Config{Tracer: tr})
	a := remoteAID(31)
	p, err := eng.SpawnRoot(func(ctx *Ctx) error {
		ctx.Guess(a)
		return nil
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	waitCond(t, 10*time.Second, "speculative completion", func() bool {
		st := p.Snapshot()
		return st.Completed && !st.AllDefinite
	})
	var guessed ids.IntervalID
	for _, r := range p.HistorySnapshot() {
		if r.GuessAID == a {
			guessed = r.ID
		}
	}

	p.handleRollback(msg.Rollback(a, guessed))
	<-tr.held
	st := p.Snapshot()
	close(tr.release)
	if !st.AllDefinite {
		t.Fatalf("truncated history not all-definite: %+v", st)
	}
	if st.Completed {
		t.Fatalf("Snapshot reads Completed while the re-execution is pending: %+v", st)
	}
	waitCond(t, 10*time.Second, "re-execution completes", func() bool {
		st := p.Snapshot()
		return st.Completed && st.AllDefinite && st.Restarts == 1
	})
}
