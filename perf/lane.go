package main

// A lane is one closed-loop client: it submits a report-pagination job,
// waits for it to commit, checks it, and only then submits the next.
// Commit detection is event-driven (see wait below and perf/README.md):
// this machine's timers fire at ~1.1 ms granularity, so polling cannot
// resolve a 0.3 ms speculative completion.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/oracle"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/trace"
)

// jobRecord is one job's span set. Times are offsets from submit; zero
// means the span does not apply (or was never reached).
type jobRecord struct {
	Stack      int           `json:"stack"`
	Lane       int           `json:"lane"`
	Seq        int           `json:"job"`
	Reports    int           `json:"reports"`
	Submit     time.Duration `json:"submit_ns"` // offset from process start
	Spec       time.Duration `json:"spec_ns"`
	Definite   time.Duration `json:"definite_ns"` // spec→definite is the verify span
	Commit     time.Duration `json:"commit_ns"`   // definite→commit is the release span
	Quiesce    time.Duration `json:"quiesce_ns"`  // commit→barrier satisfied (rpc-miss)
	Restarts   int           `json:"restarts"`
	JournalLen int           `json:"journal_len"`
	Failed     string        `json:"failed,omitempty"`
	// Host is the host's speed around the job's window; the durations
	// above are as the clock read them.
	Host float64 `json:"host"`
}

// jobState is what the wrapped worker body and the sink share with the
// lane that waits on them.
type jobState struct {
	proc     atomic.Pointer[core.Process]
	specAt   atomic.Int64 // epoch offset of the last un-rolled-back body end
	ended    atomic.Int64 // Restarts value of that execution; -1 = none yet
	released atomic.Int64 // epoch offset of the sink call; 0 = not yet
	totals   atomic.Int64 // PageReport.Totals handed to the sink
}

type lane struct {
	stack  int // which of the run's stacks; only labels the records
	id     int
	w      workload
	st     *stack
	sm     *seams // nil on an untraced run
	rng    *rand.Rand
	wakeCh chan struct{}
	timer  *time.Timer

	// worker is the PID of the job being waited on, read by the tracer.
	worker atomic.Uint64
	// rolledAt is the epoch offset of the worker's latest Rollback event
	// (traced runs only), consumed by the next body end.
	rolledAt atomic.Int64

	server     ids.PID
	pageSize   int // of the jobs since the last layout check
	sinceBase  int // reports printed on server since its line counter was 0
	unchecked  int // records[len-unchecked:] await the next layout check
	records    []jobRecord
	lastReason string // why the lane's latest failed job failed

	// deadline is the measured window's shared end (epoch offset), nil
	// during warm-up. A job that times out pushes it back by the time
	// the lane lost waiting, and stalled accumulates that time: whether
	// a window contains a stuck job is a lottery, and a second of dead
	// time would otherwise swing its throughput by a tenth.
	deadline *atomic.Int64
	stalled  time.Duration
}

func newLane(stackIndex, id int, w workload, st *stack, sm *seams, seed int64) (*lane, error) {
	l := &lane{
		stack: stackIndex, id: id, w: w, st: st, sm: sm,
		rng:    rand.New(rand.NewSource(seed)),
		wakeCh: make(chan struct{}, 1),
		timer:  time.NewTimer(time.Hour),
	}
	l.timer.Stop()
	return l, l.rebase()
}

// now is the offset from process start, the epoch of every job record.
func (l *lane) now() int64 { return int64(time.Since(processStart)) }

func (l *lane) wake() {
	select {
	case l.wakeCh <- struct{}{}:
	default:
	}
}

// rebase points the lane at a freshly spawned print server.
func (l *lane) rebase() error {
	p, err := l.st.server().eng.SpawnRoot(rpc.PrintServer())
	if err != nil {
		return fmt.Errorf("lane %d: spawn print server: %w", l.id, err)
	}
	l.server, l.sinceBase = p.PID(), 0
	return nil
}

// laneTracer is the client engine's tracer: a Finalize on a waited-on
// worker wakes its lane. Emit runs under the process lock, so it only
// signals; the lane takes the snapshot.
type laneTracer struct {
	lanes []*lane
}

func (t *laneTracer) Emit(e trace.Event) {
	if e.Kind != trace.Finalize && e.Kind != trace.Rollback {
		return
	}
	for _, l := range t.lanes {
		if l.worker.Load() != uint64(e.PID) {
			continue
		}
		if e.Kind == trace.Finalize {
			l.wake()
		} else if l.sm != nil {
			l.rolledAt.Store(l.now())
		}
	}
}

// runJobs runs n jobs and then checks the layout.
func (l *lane) runJobs(n int) error {
	for i := 0; i < n; i++ {
		if err := l.job(); err != nil {
			return err
		}
	}
	return l.check()
}

// runUntil runs jobs until the shared deadline — never later than limit
// — passes and then checks the layout.
func (l *lane) runUntil(deadline *atomic.Int64, limit int64) error {
	l.deadline = deadline
	defer func() { l.deadline = nil }()
	for now := l.now(); now < deadline.Load() && now < limit; now = l.now() {
		if err := l.job(); err != nil {
			return err
		}
	}
	return l.check()
}

// job submits one job and waits for its commit. Only a failure of the
// benchmark itself (cannot spawn) is an error; a job that times out or
// prints the wrong totals is recorded as failed.
func (l *lane) job() error {
	reports := minReports + l.rng.Intn(maxReports-minReports+1)
	js := &jobState{}
	js.ended.Store(-1)
	sink := func(rep rpc.PageReport) {
		js.totals.Store(int64(rep.Totals))
		js.released.Store(l.now())
		l.wake()
	}
	mk := rpc.StreamedWorker
	if l.w.pessimistic {
		mk = rpc.PessimisticWorker
	}
	l.pageSize = l.w.pageSizeFor(reports)
	inner := mk(l.server, l.pageSize, reports, sink)
	body := func(ctx *core.Ctx) error {
		p := js.proc.Load()
		for p == nil { // SpawnRoot has not returned to the lane yet
			runtime.Gosched()
			p = js.proc.Load()
		}
		r0 := p.Snapshot().Restarts
		err := inner(ctx)
		// A rollback that arrived during this execution without
		// interrupting it makes this end stale: a restart is pending.
		if p.Snapshot().Restarts == r0 {
			at := l.now()
			js.specAt.Store(at)
			js.ended.Store(int64(r0))
			if rolled := l.rolledAt.Swap(0); rolled != 0 {
				l.sm.respec.add(time.Duration(at - rolled))
			}
		}
		l.wake()
		return err
	}

	rec := jobRecord{Stack: l.stack, Lane: l.id, Seq: len(l.records), Reports: reports}
	l.worker.Store(0)
	l.rolledAt.Store(0)
	submit := time.Now()
	rec.Submit = submit.Sub(processStart)
	p, err := l.st.client().eng.SpawnRoot(body)
	if err != nil {
		return fmt.Errorf("lane %d: spawn worker: %w", l.id, err)
	}
	js.proc.Store(p)
	l.worker.Store(uint64(p.PID()))

	rec.Failed = l.wait(p, js, &rec)
	if rec.Failed == "" && int(js.totals.Load()) != reports {
		rec.Failed = fmt.Sprintf("printed %d totals, want %d", js.totals.Load(), reports)
	}
	if rec.Failed == "" && l.w.barrier {
		rec.Failed = l.quiesce(&rec)
	}
	l.records = append(l.records, rec)
	l.unchecked++
	l.sinceBase += reports
	if rec.Failed != "" {
		// Abandon the job: its worker may still print on the old server.
		l.lastReason = rec.Failed
		l.unchecked = 0
		if l.deadline != nil {
			lost := time.Since(submit)
			l.stalled += lost
			l.deadline.Add(int64(lost))
		}
		return l.rebase()
	}
	if l.unchecked >= l.w.checkEvery {
		return l.check()
	}
	return nil
}

// wait blocks until the job commits or times out, filling rec's spans.
// It re-examines the worker on every wake-up: a Finalize event on the
// worker, the wrapped body reaching its end, or the sink being released.
//
// Committed means: the latest body execution ran to its end, no rollback
// has happened since it started (Restarts unchanged), every interval is
// definite, the runner has marked the process complete, and — with the
// watermark on — the Externalize sink has been released. The Restarts
// check matters: between a Rollback and the re-execution it triggers,
// Snapshot still reads Completed from the previous execution, and the
// truncated history can be all-definite.
func (l *lane) wait(p *core.Process, js *jobState, rec *jobRecord) string {
	l.timer.Reset(jobTimeout)
	defer l.timer.Stop()
	var definiteAt int64
	for {
		st := p.Snapshot()
		settled := st.AllDefinite && js.ended.Load() == int64(st.Restarts)
		switch {
		case !settled:
			definiteAt = 0
		case definiteAt == 0:
			definiteAt = l.now()
		}
		if settled && (!l.w.stack.watermark || js.released.Load() != 0) {
			if st.Completed {
				commit := l.now()
				base := int64(rec.Submit)
				rec.Spec = time.Duration(js.specAt.Load() - base)
				rec.Definite = time.Duration(definiteAt - base)
				rec.Commit = time.Duration(commit - base)
				rec.Restarts = st.Restarts
				if l.sm != nil {
					rec.JournalLen = p.JournalLen()
				}
				return ""
			}
			// The body has returned; the runner is about to mark the
			// process complete. Nothing signals that, so yield and look
			// again — still under the job timeout.
			select {
			case <-l.timer.C:
				return timedOut(st, js)
			default:
				runtime.Gosched()
				continue
			}
		}
		select {
		case <-l.wakeCh:
		case <-l.timer.C:
			return timedOut(st, js)
		}
	}
}

func timedOut(st core.Status, js *jobState) string {
	return fmt.Sprintf("not committed %v after submit (completed=%v definite=%v restarts=%d released=%v)",
		jobTimeout, st.Completed, st.AllDefinite, st.Restarts, js.released.Load() != 0)
}

// quiesce is the rpc-miss barrier: the next job is not submitted until
// the stack is quiescent, so one job's stragglers never share the
// servers with the next job's rollbacks.
func (l *lane) quiesce(rec *jobRecord) string {
	start := time.Now()
	for !l.st.quiescent() {
		if time.Since(start) > barrierTimeout {
			return fmt.Sprintf("no distributed quiescence %v after commit", barrierTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	rec.Quiesce = time.Since(start)
	return ""
}

// check compares the server's line counter with the sequential oracle
// and resets it to a fresh page. A mismatch fails every job since the
// last good check and re-bases the lane on a new server.
func (l *lane) check() error {
	if l.unchecked == 0 {
		return nil
	}
	eng := l.st.client().eng
	// The probe's own print accounts for the +1.
	want := oracle.ExpectedFinalLine(l.pageSize, l.sinceBase) + 1
	line, err := rpc.Probe(eng, l.server, rpc.MethodPrint, probeTimeout)
	if err == nil && line == want {
		if _, err = rpc.Probe(eng, l.server, rpc.MethodNewPage, probeTimeout); err == nil {
			l.sinceBase, l.unchecked = 0, 0
			return nil
		}
	}
	reason := fmt.Sprintf("layout check: server line %d, want %d", line, want)
	if err != nil {
		reason = "layout check: " + err.Error()
	}
	l.lastReason = reason
	for i := len(l.records) - l.unchecked; i < len(l.records); i++ {
		if l.records[i].Failed == "" {
			l.records[i].Failed = reason
		}
	}
	l.unchecked = 0
	return l.rebase()
}
