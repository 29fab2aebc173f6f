package main

// Seam decorators for the traced run. Each wraps one of the interfaces
// the engine already exposes — transport.Transport, core.Persister,
// wire.DurableHooks, core.Stability, trace.Tracer — and times or counts
// the calls crossing it. Nothing inside the program under test is
// edited; a layer's cost is what its callers see at the seam.

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/transport"
	"github.com/hope-dist/hope/internal/wire"
)

// seams aggregates every seam call of one traced run. One value is
// shared by both members, so counts are per stack, like the jobs.
type seams struct {
	// transport.Transport
	send    hist              // Engine → Transport.Send
	handler hist              // Transport → registered delivery handler
	sent    [16]atomic.Uint64 // Send calls by msg.Kind

	// core.Persister / wire.DurableHooks over the one durable.Store
	persist  hist
	wirehook hist // FrameQueued, AckAdvanced, Delivered, Consumed
	barrier  hist // SyncForWrite, SyncForAck
	// hookInSend is wirehook time spent nested inside Transport.Send
	// (FrameQueued runs under it); subtracted for the send self time.
	hookInSend atomic.Uint64

	// core.Stability and the agent's OnAdvance
	tracker  hist
	advances atomic.Uint64

	// trace.Tracer on both engines
	finalizes  atomic.Uint64
	rollbacks  atomic.Uint64
	restarts   atomic.Uint64
	guessToFin hist
	respec     hist // worker Rollback event → its next body end

	mu     sync.Mutex
	opened map[guessKey]time.Time
}

type guessKey struct {
	pid ids.PID
	iid ids.IntervalID
}

func newSeams() *seams { return &seams{opened: make(map[guessKey]time.Time)} }

func (s *seams) hists() []*hist {
	return []*hist{&s.send, &s.handler, &s.persist, &s.wirehook, &s.barrier,
		&s.tracker, &s.guessToFin, &s.respec}
}

func (s *seams) counts() []*atomic.Uint64 {
	c := []*atomic.Uint64{&s.hookInSend, &s.advances, &s.finalizes, &s.rollbacks, &s.restarts}
	for i := range s.sent {
		c = append(c, &s.sent[i])
	}
	return c
}

// reset discards what warm-up recorded, so the aggregates cover the
// measured window only.
func (s *seams) reset() {
	for _, h := range s.hists() {
		h.reset()
	}
	for _, c := range s.counts() {
		c.Store(0)
	}
}

// merge adds one stack's aggregates to the run's.
func (s *seams) merge(o *seams) {
	from := o.hists()
	for i, h := range s.hists() {
		h.merge(from[i])
	}
	add := o.counts()
	for i, c := range s.counts() {
		c.Add(add[i].Load())
	}
}

// ---------------------------------------------------------------------------
// trace.Tracer

// engineTracer returns a tracer that timestamps interval lifecycle
// events and forwards everything to next (which may be nil).
func (s *seams) engineTracer(next trace.Tracer) trace.Tracer {
	return &coreTracer{s: s, next: next}
}

type coreTracer struct {
	s    *seams
	next trace.Tracer
}

func (t *coreTracer) Emit(e trace.Event) {
	s := t.s
	switch e.Kind {
	case trace.Primitive:
		if e.Detail == "guess=true" {
			s.mu.Lock()
			s.opened[guessKey{e.PID, e.Interval}] = time.Now()
			s.mu.Unlock()
		}
	case trace.Finalize:
		s.finalizes.Add(1)
		k := guessKey{e.PID, e.Interval}
		s.mu.Lock()
		t0, ok := s.opened[k]
		delete(s.opened, k)
		s.mu.Unlock()
		if ok {
			s.guessToFin.since(t0)
		}
	case trace.Rollback:
		s.rollbacks.Add(1)
		s.mu.Lock()
		delete(s.opened, guessKey{e.PID, e.Interval})
		s.mu.Unlock()
	case trace.Restart:
		s.restarts.Add(1)
	}
	if t.next != nil {
		t.next.Emit(e)
	}
}

// ---------------------------------------------------------------------------
// transport.Transport

func (s *seams) transport(inner transport.Transport) transport.Transport {
	return &transportSeam{Transport: inner, s: s}
}

type transportSeam struct {
	transport.Transport
	s *seams
}

func (t *transportSeam) Send(m *msg.Message) {
	if k := int(m.Kind); k >= 0 && k < len(t.s.sent) {
		t.s.sent[k].Add(1)
	}
	t0 := time.Now()
	t.Transport.Send(m)
	t.s.send.since(t0)
}

func (t *transportSeam) Register(pid ids.PID, h transport.Handler) {
	t.Transport.Register(pid, func(m *msg.Message) {
		t0 := time.Now()
		h(m)
		t.s.handler.since(t0)
	})
}

// ---------------------------------------------------------------------------
// wire.DurableHooks

func (s *seams) wireHooks(inner wire.DurableHooks) wire.DurableHooks {
	return &hookSeam{inner: inner, s: s}
}

type hookSeam struct {
	inner wire.DurableHooks
	s     *seams
}

func (h *hookSeam) FrameQueued(peer int, seq uint64, frame []byte) {
	t0 := time.Now()
	h.inner.FrameQueued(peer, seq, frame)
	d := time.Since(t0)
	h.s.wirehook.add(d)
	h.s.hookInSend.Add(uint64(d))
}

func (h *hookSeam) AckAdvanced(peer int, acked uint64) {
	defer h.s.wirehook.since(time.Now())
	h.inner.AckAdvanced(peer, acked)
}

func (h *hookSeam) Delivered(from int, seq uint64, frame []byte) error {
	defer h.s.wirehook.since(time.Now())
	return h.inner.Delivered(from, seq, frame)
}

func (h *hookSeam) Consumed(from int, seq uint64) {
	defer h.s.wirehook.since(time.Now())
	h.inner.Consumed(from, seq)
}

func (h *hookSeam) SyncForWrite() error {
	defer h.s.barrier.since(time.Now())
	return h.inner.SyncForWrite()
}

func (h *hookSeam) SyncForAck() error {
	defer h.s.barrier.since(time.Now())
	return h.inner.SyncForAck()
}

func (h *hookSeam) Stats() wire.DurableStats { return h.inner.Stats() }

// ---------------------------------------------------------------------------
// core.Persister

// persisterInner is what durable.Store offers the engine: the Persister
// plus the ProcExporter extension the engine discovers by type
// assertion. The seam must offer both, or a traced engine would stop
// writing export records and no longer do the untraced engine's work.
type persisterInner interface {
	core.Persister
	core.ProcExporter
}

func (s *seams) persister(inner persisterInner) core.Persister {
	return &persistSeam{inner: inner, s: s}
}

type persistSeam struct {
	inner persisterInner
	s     *seams
}

var _ core.ProcExporter = (*persistSeam)(nil)

func (p *persistSeam) JournalAppend(pid ids.PID, e *journal.Entry) {
	defer p.s.persist.since(time.Now())
	p.inner.JournalAppend(pid, e)
}

func (p *persistSeam) IntervalOpen(pid ids.PID, rec *interval.Record) {
	defer p.s.persist.since(time.Now())
	p.inner.IntervalOpen(pid, rec)
}

func (p *persistSeam) IntervalState(pid ids.PID, rec *interval.Record) {
	defer p.s.persist.since(time.Now())
	p.inner.IntervalState(pid, rec)
}

func (p *persistSeam) IntervalFinalize(pid ids.PID, iid ids.IntervalID) {
	defer p.s.persist.since(time.Now())
	p.inner.IntervalFinalize(pid, iid)
}

func (p *persistSeam) Rollback(pid ids.PID, iid ids.IntervalID) {
	defer p.s.persist.since(time.Now())
	p.inner.Rollback(pid, iid)
}

func (p *persistSeam) DeadAID(pid ids.PID, a ids.AID) {
	defer p.s.persist.since(time.Now())
	p.inner.DeadAID(pid, a)
}

func (p *persistSeam) Compact(pid ids.PID, iid ids.IntervalID, base any) error {
	defer p.s.persist.since(time.Now())
	return p.inner.Compact(pid, iid, base)
}

func (p *persistSeam) AutoDenied(a ids.AID) {
	defer p.s.persist.since(time.Now())
	p.inner.AutoDenied(a)
}

func (p *persistSeam) MessageConsumed(m *msg.Message) {
	defer p.s.persist.since(time.Now())
	p.inner.MessageConsumed(m)
}

func (p *persistSeam) ProcExport(pid ids.PID, snap *core.Restored) error {
	defer p.s.persist.since(time.Now())
	return p.inner.ProcExport(pid, snap)
}

// ---------------------------------------------------------------------------
// core.Stability

func (s *seams) stability(inner core.Stability) core.Stability {
	return &stabilitySeam{inner: inner, s: s}
}

type stabilitySeam struct {
	inner core.Stability
	s     *seams
}

func (t *stabilitySeam) Opened(epoch uint32) {
	defer t.s.tracker.since(time.Now())
	t.inner.Opened(epoch)
}

func (t *stabilitySeam) Issued(epoch uint32) {
	defer t.s.tracker.since(time.Now())
	t.inner.Issued(epoch)
}

func (t *stabilitySeam) Settled(epoch uint32) {
	defer t.s.tracker.since(time.Now())
	t.inner.Settled(epoch)
}

func (t *stabilitySeam) Revoked(epoch uint32) {
	defer t.s.tracker.since(time.Now())
	t.inner.Revoked(epoch)
}

func (t *stabilitySeam) Covered(epoch uint32) bool {
	defer t.s.tracker.since(time.Now())
	return t.inner.Covered(epoch)
}

func (t *stabilitySeam) Emitted(epoch uint32) {
	defer t.s.tracker.since(time.Now())
	t.inner.Emitted(epoch)
}

// ---------------------------------------------------------------------------
// Aggregates written to --trace-out.

// seamSpan is one seam's calls aggregated over the traced window.
type seamSpan struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Count   uint64  `json:"count"`
	TotalNS float64 `json:"total_ns"`
	SelfNS  float64 `json:"self_ns"` // total minus nested seam time
	P50NS   float64 `json:"p50_ns"`
	P99NS   float64 `json:"p99_ns"`
}

func span(name, kind string, h *hist, nestedNS float64) seamSpan {
	return seamSpan{
		Name: name, Kind: kind, Count: h.n(), TotalNS: h.totalNS(),
		SelfNS: h.totalNS() - nestedNS, P50NS: h.quantileNS(50), P99NS: h.quantileNS(99),
	}
}

func (s *seams) spans() []seamSpan {
	return []seamSpan{
		span("transport.send", "transport.Transport", &s.send, float64(s.hookInSend.Load())),
		span("transport.handler", "transport.Transport", &s.handler, 0),
		span("durable.persist", "core.Persister", &s.persist, 0),
		span("durable.wirehook", "wire.DurableHooks", &s.wirehook, 0),
		span("durable.barrier", "wire.DurableHooks", &s.barrier, 0),
		span("stability.tracker", "core.Stability", &s.tracker, 0),
		span("core.guess_to_finalize", "trace.Tracer", &s.guessToFin, 0),
		span("core.rollback_to_respec", "trace.Tracer", &s.respec, 0),
	}
}
