// Package core implements the HOPE engine: it binds the virtual process
// machine, the replay journal, the interval histories, and the AID table
// into the wait-free algorithm of the paper's Section 5.
//
// A user process is a deterministic body function driven through a Ctx.
// All HOPE primitives perform only local bookkeeping plus asynchronous
// sends — no primitive ever waits for a remote reply (the paper's central
// design criterion). Rollback is realized by journal truncation and body
// re-execution with replay; see internal/journal and DESIGN.md §2.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/transport"
	"github.com/hope-dist/hope/internal/vpm"
)

// Body is a HOPE user-process body. Bodies must be deterministic given
// the interactions performed through ctx (the journal replays them after
// a rollback); outside nondeterminism must go through Ctx.Record.
type Body func(ctx *Ctx) error

// ErrTerminated is reported by processes whose speculative root interval
// was rolled back (the process "should never have existed").
var ErrTerminated = errors.New("core: process terminated by rollback of speculative root")

// ErrShutdown is reported for processes still running at engine shutdown.
var ErrShutdown = errors.New("core: engine shut down")

// Engine hosts a HOPE system: user processes, the AID table that
// adjudicates their assumptions, and the transport between them.
type Engine struct {
	machine *vpm.Machine
	ctl     interval.Control
	tracer  trace.Tracer
	epochs  ids.EpochAllocator
	persist Persister
	restore map[ids.PID]*Restored

	// violations counts protocol violations observed at runtime:
	// conflicting affirm/deny (the paper's "user error") and the
	// documented premature-commit residual (DESIGN.md §4.9).
	violations atomic.Int64

	// Speculation leases (see liveness.go). liveness is nil when the
	// layer is disabled; autoDenied counts liveness-triggered denials.
	liveness   *LivenessConfig
	leaseStop  chan struct{}
	leaseDone  chan struct{}
	autoDenied atomic.Int64

	// stability, when non-nil, puts the engine in revocable-commit mode:
	// interval lifecycle events feed the watermark tracker, Externalize
	// output is gated on frontier coverage, and uncovered definite
	// intervals can be un-finalized (see stability.go).
	stability Stability

	// router is the AID table: it hosts this engine's assumption machines
	// and, with a ring, routes adjudication to ring owners (see route.go).
	router *router

	// Outbound addressing (address.go): net is the transport under the
	// chokepoint, which carries resolved messages only. xmu guards the
	// old→new incarnation map (transplant.go) and the one park queue;
	// xlateOn keeps resolve to one atomic load while no mapping exists.
	net         transport.Transport
	xlateOn     atomic.Bool
	xmu         sync.RWMutex
	transplants map[ids.PID]ids.PID
	parked      []*msg.Message
	flushMu     sync.Mutex // one flush at a time keeps re-park order

	mu      sync.Mutex
	procs   map[ids.PID]*Process
	archive map[ids.AID]bool // collected assumptions → final verdict
	closing bool

	// Live work, so Quiet and FlushStable cost O(live work) rather than
	// O(every process ever spawned): the machine's Pending counts frames
	// put into user-process mailboxes and not yet handled by dispatch;
	// active holds every process that is running or awaiting
	// re-execution; holders every process withholding an Externalize
	// output; uncovered every finished process the stability frontier
	// does not yet cover. Processes keep the sets current under their own
	// lock (Process.trackLocked), so lmu nests inside Process.mu.
	lmu       sync.Mutex
	active    map[*Process]struct{}
	holders   map[*Process]struct{}
	uncovered map[*Process]struct{}

	// Tombstones of reaped processes (reap.go): tombHandler answers every
	// reaped PID, tombs locates each one's surviving interval epochs in
	// tombEpochs. tmu is a leaf lock.
	tmu         sync.RWMutex
	tombHandler transport.Handler
	tombs       map[ids.PID]tombRef
	tombEpochs  []uint32

	runners sync.WaitGroup
}

// Config parameterizes a new engine.
type Config struct {
	// Transport carries the engine's messages. Nil means a synchronous
	// in-process transport (transport.NewLocal); simulations pass a
	// netsim.Net, distributed nodes a wire.Node. The engine takes
	// ownership: Shutdown closes it, so a Transport (and hence a Config
	// holding one) must not be reused across engines.
	Transport transport.Transport
	// PIDBase, when nonzero, is the exclusive lower bound of the PID
	// namespace this engine allocates from. Distributed deployments give
	// each node a disjoint base (wire.PIDBase) so every PID is globally
	// unique and identifies its owning node.
	PIDBase ids.PID
	// Algorithm selects Control's variant; the zero value means
	// Algorithm2 (cycle detection on), the production default.
	Algorithm interval.Algorithm
	// Tracer receives runtime events (nil = discard).
	Tracer trace.Tracer
	// Persist, when non-nil, receives the write-ahead-log callbacks that
	// make user-process state crash-recoverable (see Persister).
	Persist Persister
	// Restore maps PIDs to pre-crash state recovered from a WAL. The
	// first spawn that draws a mapped PID is rebuilt from it instead of
	// starting fresh; see Restored for the determinism requirement.
	Restore map[ids.PID]*Restored
	// Liveness, when non-nil with a positive Lease, enables speculation
	// leases: assumptions that stay speculative past their lease (or
	// whose owning node is declared dead) are auto-denied so dependents
	// roll back instead of waiting forever. See liveness.go.
	Liveness *LivenessConfig
	// Denied seeds the archive with assumptions already auto-denied by a
	// previous incarnation (recovered from the WAL), so a restart cannot
	// resurrect an orphaned speculation: re-guesses answer false locally
	// and replayed dependents are re-rolled-back by the lease sweeper.
	Denied []ids.AID
	// Stability, when non-nil, enables the global commit watermark
	// (DESIGN.md §12): local finalize stays wait-free but becomes
	// revocable until the stability frontier covers the interval, and
	// Ctx.Externalize output is withheld until coverage. Every engine in
	// a deployment must agree on whether Stability is set; mixing modes
	// across nodes (or across restarts over one WAL) is unsupported.
	Stability Stability
	// Routing, when non-nil, enables ownership-driven AID routing
	// (DESIGN.md §13): adjudications go to the ring-designated owner for
	// the current view epoch, stale-view senders are NACKed and retry,
	// and hosted machines migrate on view changes instead of being
	// denied. Every engine in a deployment must agree on whether Routing
	// is set.
	Routing *RoutingConfig
}

// NewEngine constructs an engine over its transport.
func NewEngine(cfg Config) *Engine {
	alg := cfg.Algorithm
	if alg == 0 {
		alg = interval.Algorithm2
	}
	tr := cfg.Tracer
	if tr == nil {
		tr = trace.Nop
	}
	net := cfg.Transport
	if net == nil {
		net = transport.NewLocal()
	}
	e := &Engine{
		// Without the watermark True is absorbing (DESIGN.md §4.9).
		ctl:       interval.Control{Alg: alg, TrueFinal: cfg.Stability == nil},
		persist:   cfg.Persist,
		restore:   cfg.Restore,
		procs:     make(map[ids.PID]*Process),
		archive:   make(map[ids.AID]bool),
		active:    make(map[*Process]struct{}),
		holders:   make(map[*Process]struct{}),
		uncovered: make(map[*Process]struct{}),
		tombs:     make(map[ids.PID]tombRef),

		transplants: make(map[ids.PID]ids.PID),
	}
	e.tombHandler = e.tombstone
	// Every outbound message passes the one addressing step (address.go):
	// a nil-ring check and one atomic load until a ring or a transplant
	// mapping makes it re-address a copy.
	e.net = net
	e.machine = vpm.New(&outbound{Transport: net, eng: e})
	if cfg.PIDBase != 0 {
		e.machine.SkipPIDs(cfg.PIDBase)
	}
	// Intervals opened after a restore must never collide with a restored
	// interval's (Seq, Epoch): skip the epoch space past everything the
	// recovered histories carry.
	var maxEpoch uint32
	for _, r := range cfg.Restore {
		if r.MaxEpoch > maxEpoch {
			maxEpoch = r.MaxEpoch
		}
		for _, ri := range r.Intervals {
			if ri.ID.Epoch > maxEpoch {
				maxEpoch = ri.ID.Epoch
			}
		}
	}
	e.epochs.Skip(maxEpoch)
	e.tracer = violationCounter{inner: tr, count: &e.violations}
	for _, a := range cfg.Denied {
		e.archive[a] = false
	}
	e.stability = cfg.Stability
	newRouter(e, cfg.Routing.norm())
	e.liveness = cfg.Liveness.norm()
	e.leaseStop = make(chan struct{})
	e.leaseDone = make(chan struct{})
	if e.liveness != nil {
		go e.leaseLoop()
	} else {
		close(e.leaseDone)
	}
	return e
}

// violationCounter tallies violation events on their way to the
// configured tracer, giving tracer-less callers an integrity signal.
type violationCounter struct {
	inner trace.Tracer
	count *atomic.Int64
}

// Emit implements trace.Tracer.
func (t violationCounter) Emit(e trace.Event) {
	if e.Kind == trace.Violation {
		t.count.Add(1)
	}
	t.inner.Emit(e)
}

// Violations returns how many protocol violations the runtime has
// observed: conflicting affirm/deny (the paper's "user error") or the
// premature-commit residual documented in DESIGN.md §4.9. A nonzero
// count means some committed state may not satisfy Theorem 5.1.
func (e *Engine) Violations() int64 {
	return e.violations.Load()
}

// Net exposes the transport, mainly for message-count experiments.
func (e *Engine) Net() transport.Transport { return e.machine.Net() }

// Algorithm returns the Control variant in use.
func (e *Engine) Algorithm() interval.Algorithm { return e.ctl.Alg }

// Tracer returns the engine's tracer.
func (e *Engine) Tracer() trace.Tracer { return e.tracer }

// SpawnRoot starts a definite (non-speculative) top-level user process.
func (e *Engine) SpawnRoot(body Body) (*Process, error) {
	return e.spawn(body, nil)
}

// NewAID mints a fresh assumption and returns its identifier (the
// paper's aid_init). Exposed on the engine so that assumptions can be
// created before the processes that use them. The AID is a PID attached
// to the engine's AID table — no process is spawned; with a ring, its
// machine lives on whichever node the ring designates.
func (e *Engine) NewAID() (ids.AID, error) {
	e.mu.Lock()
	closing := e.closing
	e.mu.Unlock()
	if closing {
		return ids.NilAID, ErrShutdown
	}
	a := ids.AID(e.machine.AllocPID())
	e.router.mint(a)
	return a, nil
}

// spawn creates a user process whose root interval depends on birthIDO
// (nil for a definite root).
func (e *Engine) spawn(body Body, birthIDO []ids.AID) (*Process, error) {
	e.mu.Lock()
	if e.closing {
		e.mu.Unlock()
		return nil, ErrShutdown
	}
	e.mu.Unlock()

	p := newProcess(e, body, birthIDO)
	proc, err := e.machine.Spawn(p.dispatch)
	if err != nil {
		return nil, fmt.Errorf("spawn user process: %w", err)
	}
	p.bind(proc)
	e.start(p)
	return p, nil
}

// start registers a bound process and launches its runner. A spawn that
// passed the closing check before Shutdown took its process snapshot
// registers too late to be in it; that process is shut down here, or
// Shutdown would wait for its runner forever. From here on the process
// may be reaped; one restored already terminated is reaped at once.
func (e *Engine) start(p *Process) {
	e.mu.Lock()
	e.procs[p.PID()] = p
	closing := e.closing
	e.mu.Unlock()
	p.mu.Lock()
	p.started = true
	p.trackLocked()
	p.mu.Unlock()

	e.runners.Add(1)
	go func() {
		defer e.runners.Done()
		p.run()
	}()
	if closing {
		p.shutdown()
	}
}

// Process returns the live process with the given PID, or nil. A
// reaped process — finished, and beyond revocation — is not live; a
// caller that kept its *Process can still read its Snapshot.
func (e *Engine) Process(pid ids.PID) *Process {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.procs[pid]
}

// Processes returns a snapshot of the live user processes: every one
// spawned and not yet reaped.
func (e *Engine) Processes() []*Process {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Process, 0, len(e.procs))
	for _, p := range e.procs {
		out = append(out, p)
	}
	return out
}

// Shutdown terminates every process and closes the transport. It is safe
// to call once; processes observe ErrShutdown if still running.
func (e *Engine) Shutdown() {
	e.mu.Lock()
	if e.closing {
		e.mu.Unlock()
		return
	}
	e.closing = true
	procs := make([]*Process, 0, len(e.procs))
	for _, p := range e.procs {
		procs = append(procs, p)
	}
	e.mu.Unlock()

	// Stop the lease sweeper before the machine: a sweep mid-teardown
	// would synthesize denials into a transport being closed. The
	// park queue's retry pacer stops for the same reason.
	close(e.leaseStop)
	<-e.leaseDone
	e.router.stopRetries()
	for _, p := range procs {
		p.shutdown()
	}
	e.runners.Wait()
	e.router.close()
	e.machine.Shutdown()
}

// Settle blocks until the system is quiescent — no in-flight transport
// messages, every mailbox drained, every user process parked (completed,
// waiting in Recv, or terminated) — or the timeout elapses. It returns
// true on quiescence. Tests and benchmarks use it as the "run to
// completion" barrier; it does not guarantee every interval is definite
// (an unresolved assumption legitimately leaves speculation pending).
func (e *Engine) Settle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	stable := 0
	for {
		// Poll rather than block on transport drain: a livelocked system
		// (e.g. Algorithm 1 on a dependency cycle) never drains, and
		// Settle must still honour its timeout.
		if e.machine.Net().Inflight() == 0 && e.quiet() {
			stable++
			if stable >= 3 {
				return true
			}
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// quiet reports whether the AID table is idle, no frame waits in or is
// being handled from a user-process mailbox, and every process that can
// still act on its own is parked. Completed and terminated processes are
// never visited: only new frames (counted by the machine's Pending) can
// wake them.
//
// The Pending count is read before the active set: a frame handled after
// that read either left its process in the set (a rollback sets pending
// before dispatch retires the frame) or changed nothing that can act.
func (e *Engine) quiet() bool {
	if e.router.busy() || e.machine.Pending() != 0 {
		return false
	}
	for _, p := range e.snapshot(e.active) {
		if !p.parked() {
			return false
		}
	}
	return true
}

// snapshot copies one of the live-work sets, so its members can be
// visited without holding lmu (which nests inside Process.mu).
func (e *Engine) snapshot(set map[*Process]struct{}) []*Process {
	e.lmu.Lock()
	defer e.lmu.Unlock()
	out := make([]*Process, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	return out
}

// mark adds p to or removes it from one of the live-work sets.
func (e *Engine) mark(set map[*Process]struct{}, p *Process, in bool) {
	e.lmu.Lock()
	if in {
		set[p] = struct{}{}
	} else {
		delete(set, p)
	}
	e.lmu.Unlock()
}
