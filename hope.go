// Package hope is a Go implementation of HOPE — the Hopefully Optimistic
// Programming Environment — as described in "A Wait-free Algorithm for
// Optimistic Programming: HOPE Realized" (Cowan & Lutfiyya, ICDCS 1996).
//
// HOPE adds general optimism to a message-passing concurrent program:
// a process may *guess* the outcome of a not-yet-verified assumption and
// speculate onward; the runtime tracks every causal descendant of the
// assumption — across processes, through message tags — and either
// retains the speculative work when the assumption is affirmed or rolls
// it all back when it is denied. Unlike Time Warp, any assumption may be
// guessed and any user criterion may decide it; unlike statically scoped
// schemes, speculation may span arbitrary code and processes.
//
// The runtime implements the paper's wait-free Algorithm 2: no HOPE
// primitive ever blocks on a remote reply, and dependency cycles created
// by interleaved speculative affirms are detected and cut.
//
// # Quick start
//
//	sys := hope.New()
//	defer sys.Shutdown()
//	sys.Spawn(func(ctx *hope.Ctx) error {
//		x := ctx.AidInit()
//		// ... arrange for some process to ctx.Affirm(x) or ctx.Deny(x) ...
//		if ctx.Guess(x) {
//			// optimistic fast path, speculative until x is affirmed
//		} else {
//			// pessimistic path, executed only after x was denied
//		}
//		return nil
//	})
//
// See the examples/ directory for complete programs, including the
// paper's Worker/WorryWart RPC pagination example.
package hope

import (
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/netsim"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/transport"
)

// Re-exported identifier and runtime types. AIDs identify optimistic
// assumptions; PIDs identify processes.
type (
	// AID is an assumption identifier (the paper's aid_t).
	AID = ids.AID
	// PID is a process identifier.
	PID = ids.PID
	// Ctx is a process body's handle to the HOPE primitives; see the
	// methods of core.Ctx: Guess, Affirm, Deny, FreeOf, Send, Recv,
	// Spawn, AidInit, Record, Yield.
	Ctx = core.Ctx
	// Body is a user process body. Bodies must be deterministic given
	// their Ctx interactions; see Ctx.Record for outside nondeterminism.
	Body = core.Body
	// Process is a handle on a spawned user process.
	Process = core.Process
	// Status is a snapshot of a process's observable state.
	Status = core.Status
	// Tracer receives structured runtime events.
	Tracer = trace.Tracer
	// LatencyModel computes simulated network delays.
	LatencyModel = netsim.LatencyModel
	// Transport carries HOPE messages between processes; see
	// internal/transport for the contract and internal/wire for the
	// TCP implementation.
	Transport = transport.Transport
	// NetStats are cumulative transport message counts.
	NetStats = transport.Stats
)

// NilAID is the zero assumption identifier; Guess(NilAID) creates a
// fresh assumption (the paper's guess with an empty argument).
const NilAID = ids.NilAID

// ErrTerminated is reported by processes whose speculative root interval
// was rolled back.
var ErrTerminated = core.ErrTerminated

// Option configures a System.
type Option interface {
	apply(*options)
}

type options struct {
	latency   netsim.LatencyModel
	transport transport.Transport
	pidBase   ids.PID
	algorithm interval.Algorithm
	tracer    trace.Tracer
}

type latencyOption struct{ m netsim.LatencyModel }

func (o latencyOption) apply(opts *options) { opts.latency = o.m }

// WithLatency installs a custom latency model for the simulated network.
func WithLatency(m LatencyModel) Option { return latencyOption{m: m} }

// WithConstantLatency delays every message by d. The default is zero.
func WithConstantLatency(d time.Duration) Option {
	return latencyOption{m: netsim.Constant(d)}
}

// WithJitterLatency delays messages by a seeded uniform random duration
// in [min, max]; ordering between any single sender/receiver pair is
// still preserved.
func WithJitterLatency(min, max time.Duration, seed int64) Option {
	return latencyOption{m: netsim.NewUniform(min, max, seed)}
}

type algorithmOption struct{ alg interval.Algorithm }

func (o algorithmOption) apply(opts *options) { opts.algorithm = o.alg }

// WithoutCycleDetection selects the paper's Algorithm 1 (§5.2), which
// satisfies the HOPE semantics only for acyclic dependency graphs. It
// exists for the cycle-detection experiments; production systems should
// keep the default Algorithm 2.
func WithoutCycleDetection() Option {
	return algorithmOption{alg: interval.Algorithm1}
}

type transportOption struct{ t transport.Transport }

func (o transportOption) apply(opts *options) { opts.transport = o.t }

// WithTransport installs an explicit transport — typically a wire.Node so
// the System becomes one node of a distributed deployment. It overrides
// any latency option.
func WithTransport(t Transport) Option { return transportOption{t: t} }

type pidBaseOption struct{ base ids.PID }

func (o pidBaseOption) apply(opts *options) { opts.pidBase = o.base }

// WithPIDBase places this System's PID namespace above base so PIDs are
// globally unique across the nodes of a distributed deployment (pair with
// WithTransport; see wire.PIDBase).
func WithPIDBase(base PID) Option { return pidBaseOption{base: base} }

type tracerOption struct{ t trace.Tracer }

func (o tracerOption) apply(opts *options) { opts.tracer = o.t }

// WithTracer installs a tracer receiving runtime events.
func WithTracer(t Tracer) Option { return tracerOption{t: t} }

// System is a running HOPE environment: a set of user processes and the
// AID table adjudicating their assumptions, over a simulated network.
type System struct {
	eng *core.Engine
}

// New constructs a System.
func New(opts ...Option) *System {
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	tp := o.transport
	if tp == nil && o.latency != nil {
		tp = netsim.New(o.latency)
	}
	return &System{eng: core.NewEngine(core.Config{
		Transport: tp,
		PIDBase:   o.pidBase,
		Algorithm: o.algorithm,
		Tracer:    o.tracer,
	})}
}

// Spawn starts a definite (non-speculative) top-level process. Processes
// spawned from inside a body via Ctx.Spawn inherit the spawner's
// speculation instead.
func (s *System) Spawn(body Body) (*Process, error) {
	return s.eng.SpawnRoot(body)
}

// NewAID creates an assumption identifier outside any process — the
// paper's aid_init, used to set up verification machinery ahead of time.
func (s *System) NewAID() (AID, error) {
	return s.eng.NewAID()
}

// Process returns the live process with the given PID, or nil. A
// process that completed with every interval definite is reaped and no
// longer live; a caller that kept its *Process can still read its
// Snapshot.
func (s *System) Process(pid PID) *Process {
	return s.eng.Process(pid)
}

// Processes returns a snapshot of every live user process: reaped ones —
// finished and beyond revocation — are not included.
func (s *System) Processes() []*Process {
	return s.eng.Processes()
}

// Settle blocks until the system is quiescent (all messages delivered and
// consumed, all processes parked) or the timeout elapses, reporting
// whether quiescence was reached.
func (s *System) Settle(timeout time.Duration) bool {
	return s.eng.Settle(timeout)
}

// Stats returns cumulative transport message counts by kind.
func (s *System) Stats() NetStats {
	return s.eng.Net().Stats()
}

// Violations returns how many protocol violations the runtime has
// observed — conflicting affirm/deny (the paper's "user error") or the
// premature-commit residual documented in DESIGN.md §4.9. Zero means
// every committed interval satisfied Theorem 5.1's condition.
func (s *System) Violations() int64 {
	return s.eng.Violations()
}

// LoopConfig parameterizes Loop: a message-handling state machine with
// automatic journal compaction.
type LoopConfig[S any] = core.LoopConfig[S]

// Loop builds a process body around a message-handling state machine
// with automatic compaction: replay cost after a rollback is bounded by
// the speculative suffix instead of the process's lifetime. See
// core.Loop for the contract.
func Loop[S any](cfg LoopConfig[S]) Body {
	return core.Loop(cfg)
}

// Collect archives the verdicts of assumptions that have reached a final
// verdict, so later guesses are answered locally (the paper's §5.2
// garbage-collection remark). The AID table already drops most decided
// machines as it serves and keeps their verdicts; Collect moves those
// verdicts, and any final machine still hosted, into the archive and
// releases the assumptions' identities. It sends no message. Call it only
// at a quiescent point — after a successful Settle. It returns the number
// of assumptions archived.
func (s *System) Collect() (int, error) {
	return s.eng.Collect()
}

// Shutdown terminates all processes and the transport. The System must
// not be used afterwards.
func (s *System) Shutdown() {
	s.eng.Shutdown()
}
