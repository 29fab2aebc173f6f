// Package netsim provides the simulated transport underneath the virtual
// process machine: asynchronous message delivery with configurable
// per-link latency, deterministic seeding, per-pair FIFO ordering (HOPE
// assumes reliable, order-preserving channels between process pairs), and
// message counters used by the complexity experiments.
//
// This is the substitute for the paper's PVM network layer; see DESIGN.md
// §2. Latencies are injected in real time but scaled down (µs–ms), which
// preserves the latency-to-compute ratios the experiments sweep.
package netsim

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/transport"
)

// Handler consumes a delivered message. Handlers must be quick and
// non-blocking (typically a mailbox enqueue); they may be invoked from the
// sender's goroutine (zero latency) or a timer goroutine (with latency).
type Handler = transport.Handler

// LatencyModel computes the one-way delay for a message between two
// processes. Implementations must be safe for concurrent use.
type LatencyModel interface {
	Delay(from, to ids.PID) time.Duration
}

// Zero is the no-latency model: messages are delivered synchronously.
var Zero LatencyModel = zeroModel{}

type zeroModel struct{}

func (zeroModel) Delay(_, _ ids.PID) time.Duration { return 0 }

// Constant delays every message by the same duration.
type Constant time.Duration

// Delay implements LatencyModel.
func (c Constant) Delay(_, _ ids.PID) time.Duration { return time.Duration(c) }

// Uniform delays messages by a seeded uniform random duration in
// [Min, Max]. It is safe for concurrent use.
type Uniform struct {
	Min, Max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewUniform returns a Uniform model seeded deterministically.
func NewUniform(min, max time.Duration, seed int64) *Uniform {
	return &Uniform{Min: min, Max: max, rng: rand.New(rand.NewSource(seed))}
}

// Delay implements LatencyModel.
func (u *Uniform) Delay(_, _ ids.PID) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	u.mu.Lock()
	d := u.Min + time.Duration(u.rng.Int63n(int64(u.Max-u.Min)))
	u.mu.Unlock()
	return d
}

// LogNormal delays messages by a seeded log-normal distribution — the
// heavy-tailed shape of real WAN latencies: Median scales the curve and
// Sigma controls tail weight (0.5 is mild, 1.5 produces rare large
// stragglers). It is safe for concurrent use.
type LogNormal struct {
	Median time.Duration
	Sigma  float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewLogNormal returns a LogNormal model seeded deterministically.
func NewLogNormal(median time.Duration, sigma float64, seed int64) *LogNormal {
	return &LogNormal{Median: median, Sigma: sigma, rng: rand.New(rand.NewSource(seed))}
}

// Delay implements LatencyModel.
func (l *LogNormal) Delay(_, _ ids.PID) time.Duration {
	l.mu.Lock()
	z := l.rng.NormFloat64()
	l.mu.Unlock()
	d := time.Duration(float64(l.Median) * math.Exp(l.Sigma*z))
	if d < 0 {
		d = 0
	}
	return d
}

// Asymmetric wraps a base model, applying extra delay only to Data
// messages between user processes; control traffic uses the base model.
// (Not used by default; available to experiments that separate the cost of
// HOPE bookkeeping traffic from application traffic.)
type Asymmetric struct {
	Base  LatencyModel
	Extra time.Duration
}

// Delay implements LatencyModel.
func (a Asymmetric) Delay(from, to ids.PID) time.Duration {
	return a.Base.Delay(from, to) + a.Extra
}

// Sites models a multi-site deployment: messages within a site take
// Local, messages between sites take Remote. SiteOf maps a PID to its
// site; unmapped PIDs (e.g. assumptions' AIDs) are treated as colocated with
// whichever peer they talk to, so control traffic to an assumption costs
// Local — matching the paper's prototype, where AID processes are spawned
// on the guessing host.
type Sites struct {
	mu     sync.RWMutex
	siteOf map[ids.PID]int
	local  time.Duration
	remote time.Duration
}

// NewSites returns a Sites model with the given intra- and inter-site
// latencies.
func NewSites(local, remote time.Duration) *Sites {
	return &Sites{
		siteOf: make(map[ids.PID]int),
		local:  local,
		remote: remote,
	}
}

// Place assigns pid to a site.
func (s *Sites) Place(pid ids.PID, site int) {
	s.mu.Lock()
	s.siteOf[pid] = site
	s.mu.Unlock()
}

// Delay implements LatencyModel.
func (s *Sites) Delay(from, to ids.PID) time.Duration {
	s.mu.RLock()
	fs, fok := s.siteOf[from]
	ts, tok := s.siteOf[to]
	s.mu.RUnlock()
	if !fok || !tok || fs == ts {
		return s.local
	}
	return s.remote
}

// Override wraps a base model with per-directed-pair latency overrides,
// used by tests and experiments to slow down one specific link (e.g. a
// lagging replication channel).
type Override struct {
	Base LatencyModel

	mu    sync.RWMutex
	pairs map[[2]ids.PID]time.Duration
}

// NewOverride returns an Override over base.
func NewOverride(base LatencyModel) *Override {
	if base == nil {
		base = Zero
	}
	return &Override{Base: base, pairs: make(map[[2]ids.PID]time.Duration)}
}

// SetPair fixes the latency for messages from one PID to another.
func (o *Override) SetPair(from, to ids.PID, d time.Duration) {
	o.mu.Lock()
	o.pairs[[2]ids.PID{from, to}] = d
	o.mu.Unlock()
}

// Delay implements LatencyModel.
func (o *Override) Delay(from, to ids.PID) time.Duration {
	o.mu.RLock()
	d, ok := o.pairs[[2]ids.PID{from, to}]
	o.mu.RUnlock()
	if ok {
		return d
	}
	return o.Base.Delay(from, to)
}

// Stats holds cumulative message counts by kind. It is the shared
// transport.Stats type; netsim keeps the alias for its historical name.
type Stats = transport.Stats

// Net is the simulated transport, implementing transport.Transport. It
// routes messages to registered per-PID handlers after the latency
// model's delay, preserving per-(sender,receiver) FIFO order. The zero
// value is not usable; construct with New.
type Net struct {
	latency LatencyModel

	mu       sync.Mutex
	idle     *sync.Cond // signalled when inflight returns to zero
	handlers map[ids.PID]Handler
	pairs    map[pairKey]*pairQueue
	closed   bool
	inflight int // accepted but not yet delivered messages

	counts transport.Counters // indexed by msg.Kind; 0 = dead letters
}

var _ transport.Transport = (*Net)(nil)

type pairKey struct {
	from, to ids.PID
}

// pairQueue serializes deliveries for one (sender,receiver) pair so that
// jittered latencies cannot reorder messages within a pair.
type pairQueue struct {
	mu      sync.Mutex
	pending []*timedMsg
	running bool
}

type timedMsg struct {
	m   *msg.Message
	due time.Time
}

// New constructs a transport with the given latency model (nil = Zero).
func New(latency LatencyModel) *Net {
	if latency == nil {
		latency = Zero
	}
	n := &Net{
		latency:  latency,
		handlers: make(map[ids.PID]Handler),
		pairs:    make(map[pairKey]*pairQueue),
	}
	n.idle = sync.NewCond(&n.mu)
	return n
}

// Register installs the delivery handler for pid. Registering twice for
// the same pid replaces the handler.
func (n *Net) Register(pid ids.PID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[pid] = h
}

// Unregister removes pid's handler; subsequent deliveries to pid become
// dead letters (counted, dropped).
func (n *Net) Unregister(pid ids.PID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, pid)
}

// Send enqueues m for delivery after the latency model's delay. Send never
// blocks on the receiver. Sends on a closed Net are dropped.
func (n *Net) Send(m *msg.Message) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.inflight++
	n.mu.Unlock()

	d := n.latency.Delay(m.From, m.To)
	if d <= 0 {
		n.deliver(m)
		n.done()
		return
	}

	key := pairKey{from: m.From, to: m.To}
	n.mu.Lock()
	q := n.pairs[key]
	if q == nil {
		q = &pairQueue{}
		n.pairs[key] = q
	}
	n.mu.Unlock()

	q.mu.Lock()
	q.pending = append(q.pending, &timedMsg{m: m, due: time.Now().Add(d)})
	if !q.running {
		q.running = true
		go n.drainPair(q)
	}
	q.mu.Unlock()
}

// drainPair delivers a pair's messages in FIFO order, sleeping until each
// message's due time. It exits when the queue empties.
func (n *Net) drainPair(q *pairQueue) {
	for {
		q.mu.Lock()
		if len(q.pending) == 0 {
			q.running = false
			q.mu.Unlock()
			return
		}
		tm := q.pending[0]
		q.pending = q.pending[1:]
		q.mu.Unlock()

		if wait := time.Until(tm.due); wait > 0 {
			time.Sleep(wait)
		}
		n.deliver(tm.m)
		n.done()
	}
}

// done retires one in-flight message, waking Drain when none remain.
func (n *Net) done() {
	n.mu.Lock()
	n.inflight--
	if n.inflight == 0 {
		n.idle.Broadcast()
	}
	n.mu.Unlock()
}

func (n *Net) deliver(m *msg.Message) {
	n.mu.Lock()
	h := n.handlers[m.To]
	n.mu.Unlock()
	if h == nil {
		n.counts.Observe(0)
		return
	}
	n.counts.Observe(m.Kind)
	h(m)
}

// Inflight returns the number of accepted-but-undelivered messages.
func (n *Net) Inflight() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inflight
}

// Drain blocks until every message accepted so far has been delivered.
// Useful in tests together with zero or small latencies; prefer polling
// Inflight when the system might never quiesce.
func (n *Net) Drain() {
	n.mu.Lock()
	for n.inflight > 0 {
		n.idle.Wait()
	}
	n.mu.Unlock()
}

// Close stops accepting new sends and waits for in-flight deliveries.
func (n *Net) Close() {
	n.mu.Lock()
	n.closed = true
	for n.inflight > 0 {
		n.idle.Wait()
	}
	n.mu.Unlock()
}

// Stats returns a snapshot of the cumulative delivery counters.
func (n *Net) Stats() Stats { return n.counts.Snapshot() }
