package stability

import (
	"fmt"
	"sync"
	"time"

	"github.com/hope-dist/hope/internal/trace"
)

// Config parameterizes a round Agent.
type Config struct {
	// Node is this node's ID.
	Node int
	// Tracker is the local stability bookkeeping the agent reports from
	// and applies agreed frontiers to. Required.
	Tracker *Tracker
	// Members returns the current cluster view: its epoch and the live
	// member node IDs (including self). In a static deployment it returns
	// epoch 0 and the fixed peer list. Required.
	Members func() (viewEpoch uint64, nodes []int)
	// Send transmits a stability payload to a peer node, returning false
	// if the peer is unreachable. Wired to wire.Node.Stability in a real
	// deployment, or an in-memory mesh in tests. Required.
	Send func(to int, payload []byte) bool
	// Quiet reports local engine quiescence: every mailbox drained, every
	// process parked. Nil means always quiet (tracker-only deployments).
	Quiet func() bool
	// Seqs snapshots the per-peer wire sequence state: last sequence sent
	// toward each peer and highest contiguous sequence delivered from
	// each. Nil means no wire layer (the drain check is vacuous).
	Seqs func() (sent, delivered map[int]uint64)
	// Interval is the fallback round cadence when this node is the
	// initiator (default 250ms). Rounds start on demand — whenever a
	// member's Tracker signals settled, uncovered work — and a tick
	// starts one only if none is in flight, so the cadence matters only
	// when no demand arrives.
	Interval time.Duration
	// Timeout abandons a round whose sweep never completes — a member
	// died mid-round, or its report is stuck behind a partition (default
	// 4×Interval).
	Timeout time.Duration
	// OnAdvance runs after the local frontier advanced (on the initiator
	// and on every member receiving the broadcast): persist the frontier,
	// flush gated outputs, print the HOPED STABLE line. May be nil.
	OnAdvance func(viewEpoch uint64, frontier map[int]uint32)
	// Audit, when non-nil, records every advance this agent decides (the
	// initiator's view of the run) for the stability oracle.
	Audit *Audit
	// Tracer receives round lifecycle events (nil = discard).
	Tracer trace.Tracer
}

// Agent drives stability rounds for one node. Every node runs an agent;
// only the initiator of the current view (its lowest-numbered live
// member) originates sweeps, so leadership moves automatically with
// membership churn. Rounds ride the out-of-band stability wire frame and
// never touch the sequenced protocol stream — a round in progress adds
// no messages a cut would have to drain.
//
// Rounds start on demand: when a node's Tracker signals that it settled
// with uncovered work, the initiator starts a round at once (a member
// asks it to with a pkWant frame). A sweep-one report that is not quiet,
// or has unsettled intervals, ends the round there. Nothing retries by
// itself: the next round waits for the next demand or tick.
type Agent struct {
	cfg Config

	mu      sync.Mutex
	round   uint64
	sweep   uint8 // 0 = no round in flight
	started time.Time
	members []int
	view    uint64
	r1, r2  map[int]Report
	want    bool // a demand arrived while a round was in flight
	stats   Stats

	kick chan struct{} // buffered 1: the round a pending demand asked for
	stop chan struct{}
	done chan struct{}
}

// Stats counts one agent's rounds. Every round started ends at sweep
// one, as an invalid cut, as a valid cut, or abandoned (timed out, or
// leadership moved); Advances counts frontier advances applied here, on
// the initiator and on every member.
type Stats struct {
	Rounds      uint64 // rounds this node started as initiator
	Sweep1Ends  uint64 // rounds ended at sweep one: a report not quiet or unsettled
	InvalidCuts uint64 // completed double sweeps that ValidCut rejected
	Advances    uint64 // agreed frontiers that moved this node's frontier
}

// String renders the counters for hoped --stats-every.
func (s Stats) String() string {
	return fmt.Sprintf("rounds=%d sweep1=%d invalid=%d advances=%d",
		s.Rounds, s.Sweep1Ends, s.InvalidCuts, s.Advances)
}

// NewAgent constructs an agent. Call Start to begin driving rounds;
// HandlePayload must be wired to the transport's stability frame
// delivery before Start.
func NewAgent(cfg Config) *Agent {
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 4 * cfg.Interval
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.Nop
	}
	return &Agent{cfg: cfg, kick: make(chan struct{}, 1),
		stop: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the agent goroutine: it answers the tracker's demand
// signals and runs the fallback ticker.
func (a *Agent) Start() {
	go func() {
		defer close(a.done)
		t := time.NewTicker(a.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-t.C:
				a.tick()
			case <-a.cfg.Tracker.Demand():
				a.demand()
			case <-a.kick:
				a.demand()
			}
		}
	}()
}

// Stats returns a snapshot of the round counters.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Stop halts the agent goroutine. In-flight payload handling remains
// safe.
func (a *Agent) Stop() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
		<-a.done
	}
}

// localReport snapshots this node's report for the given round/sweep.
//
// The reads are ordered so the report is stable under whatever its
// environment delivers meanwhile (DESIGN.md §12): Delivered is read
// before Quiet, so every frame it counts was already handed to a
// mailbox when quiescence was checked, and Sent after Quiet, so it
// counts everything the work Quiet saw finished has sent. Config.Seqs
// returns both maps at once, so a settled report pays for two
// snapshots; one that is not settled can be in no valid cut, and skips
// the second.
func (a *Agent) localReport(viewEpoch, round uint64, sweep uint8) Report {
	events, unsettled, maxEpoch := a.cfg.Tracker.Report()
	r := Report{
		Node: a.cfg.Node, ViewEpoch: viewEpoch, Round: round, Sweep: sweep,
		Events: events, Unsettled: unsettled, MaxEpoch: maxEpoch, Quiet: true,
	}
	if a.cfg.Seqs != nil {
		_, r.Delivered = a.cfg.Seqs()
	}
	if a.cfg.Quiet != nil {
		r.Quiet = a.cfg.Quiet()
	}
	if a.cfg.Seqs != nil && r.settled() {
		r.Sent, _ = a.cfg.Seqs()
	}
	return r
}

// settled reports whether a report can be part of a valid cut at all:
// quiet, with no unsettled interval.
func (r Report) settled() bool { return r.Quiet && r.Unsettled == 0 }

// leader returns the initiator of a member set: its lowest node ID.
func leader(nodes []int) (int, bool) {
	if len(nodes) == 0 {
		return 0, false
	}
	lead := nodes[0]
	for _, n := range nodes {
		if n < lead {
			lead = n
		}
	}
	return lead, true
}

// tick is the fallback cadence and the timeout clock: it starts a round
// if none is in flight (and this node leads the current view), or
// abandons one that timed out and starts afresh.
func (a *Agent) tick() {
	viewEpoch, nodes := a.cfg.Members()
	lead, ok := leader(nodes)
	switch {
	case !ok:
	case lead != a.cfg.Node:
		a.mu.Lock()
		a.sweep = 0 // lost leadership mid-round: abandon
		a.mu.Unlock()
	default:
		a.begin(viewEpoch, nodes, false)
	}
}

// demand answers this node's own demand signal: the initiator starts a
// round, any other member asks the initiator for one.
func (a *Agent) demand() {
	viewEpoch, nodes := a.cfg.Members()
	lead, ok := leader(nodes)
	switch {
	case !ok:
	case lead != a.cfg.Node:
		a.cfg.Send(lead, EncodeWant())
	default:
		a.begin(viewEpoch, nodes, true)
	}
}

// wanted answers a member's pkWant. It is never forwarded: two nodes
// whose views disagree on the initiator would bounce it forever.
func (a *Agent) wanted() {
	viewEpoch, nodes := a.cfg.Members()
	if lead, ok := leader(nodes); ok && lead == a.cfg.Node {
		a.begin(viewEpoch, nodes, true)
	}
}

// begin drives the initiator state machine on the node leading the
// view. With no round in flight it starts one. A round in flight is left
// alone: a demand is remembered and starts the next round once this one
// ends, and a tick abandons the round only once it has timed out.
func (a *Agent) begin(viewEpoch uint64, nodes []int, onDemand bool) {
	a.mu.Lock()
	if a.sweep != 0 {
		if onDemand {
			a.want = true
			a.mu.Unlock()
			return
		}
		if time.Since(a.started) < a.cfg.Timeout {
			a.mu.Unlock()
			return // round still in flight
		}
		a.cfg.Tracer.Emit(trace.Event{Kind: trace.Info,
			Detail: "stability: round timed out (member unreachable or busy)"})
	}
	a.want = false
	a.round++
	a.sweep = 1
	a.started = time.Now()
	a.view = viewEpoch
	a.members = append([]int(nil), nodes...)
	a.r1 = map[int]Report{}
	a.r2 = map[int]Report{}
	a.stats.Rounds++
	round := a.round
	members := a.members
	a.mu.Unlock()

	local := a.localReport(viewEpoch, round, 1)
	a.collect(local)
	if !local.settled() {
		return // the round already ended at sweep one: ask no one
	}
	for _, n := range members {
		if n != a.cfg.Node {
			a.cfg.Send(n, EncodeSweep(viewEpoch, round, 1))
		}
	}
}

// endLocked closes the round in flight and reports whether a demand
// that arrived during it is waiting; the caller then calls next.
func (a *Agent) endLocked() bool {
	a.sweep = 0
	waiting := a.want
	a.want = false
	return waiting
}

// next hands a waiting demand to the agent goroutine, which starts the
// round it asked for.
func (a *Agent) next() {
	select {
	case a.kick <- struct{}{}:
	default:
	}
}

// HandlePayload processes one stability frame from a peer. It is safe to
// call from transport read goroutines.
func (a *Agent) HandlePayload(from int, b []byte) {
	p, err := Decode(b)
	if err != nil {
		a.cfg.Tracer.Emit(trace.Event{Kind: trace.Info, Detail: "stability: " + err.Error()})
		return
	}
	switch p.Kind {
	case pkSweep:
		// Member side: answer with our current report.
		a.cfg.Send(from, EncodeReport(a.localReport(p.ViewEpoch, p.Round, p.Sweep)))
	case pkReport:
		a.collect(p.Report)
	case pkAdvance:
		a.apply(p.ViewEpoch, p.Frontier)
	case pkWant:
		a.wanted()
	}
}

// collect folds a report into the initiator's current round, advancing
// to sweep two when the first completes and deciding the cut when the
// second does. A sweep-one report that is not settled ends the round at
// once: no cut containing it could be valid.
func (a *Agent) collect(r Report) {
	a.mu.Lock()
	if a.sweep == 0 || r.Round != a.round || r.ViewEpoch != a.view {
		a.mu.Unlock()
		return // stale: an abandoned round or an older view
	}
	switch r.Sweep {
	case 1:
		if !r.settled() {
			a.stats.Sweep1Ends++
			waiting := a.endLocked()
			a.mu.Unlock()
			if waiting {
				a.next()
			}
			return
		}
		a.r1[r.Node] = r
	case 2:
		a.r2[r.Node] = r
	default:
		a.mu.Unlock()
		return
	}
	complete := func(m map[int]Report) bool {
		for _, n := range a.members {
			if _, ok := m[n]; !ok {
				return false
			}
		}
		return true
	}
	switch {
	case a.sweep == 1 && r.Sweep == 1 && complete(a.r1):
		a.sweep = 2
		view, round, members := a.view, a.round, a.members
		a.mu.Unlock()
		a.collect(a.localReport(view, round, 2))
		for _, n := range members {
			if n != a.cfg.Node {
				a.cfg.Send(n, EncodeSweep(view, round, 2))
			}
		}
		return
	case a.sweep == 2 && r.Sweep == 2 && complete(a.r2):
		view, members, r1, r2 := a.view, a.members, a.r1, a.r2
		waiting := a.endLocked()
		a.mu.Unlock()
		a.decide(view, members, r1, r2)
		if waiting {
			a.next()
		}
		return
	}
	a.mu.Unlock()
}

// decide applies ValidCut to a completed double sweep and, when valid,
// advances and broadcasts the frontier.
func (a *Agent) decide(view uint64, members []int, r1, r2 map[int]Report) {
	if err := ValidCut(view, members, r1, r2); err != nil {
		a.mu.Lock()
		a.stats.InvalidCuts++
		a.mu.Unlock()
		a.cfg.Tracer.Emit(trace.Event{Kind: trace.Info, Detail: "stability: cut invalid: " + err.Error()})
		return
	}
	frontier := CutFrontier(members, r2)
	if a.cfg.Audit != nil {
		a.cfg.Audit.Advanced(AdvanceRecord{
			ViewEpoch: view, Members: append([]int(nil), members...),
			R1: r1, R2: r2, Frontier: frontier,
		})
	}
	a.apply(view, frontier)
	for _, n := range members {
		if n != a.cfg.Node {
			a.cfg.Send(n, EncodeAdvance(view, frontier))
		}
	}
}

// apply merges an agreed frontier locally and fires OnAdvance if it
// moved.
func (a *Agent) apply(view uint64, frontier map[int]uint32) {
	if !a.cfg.Tracker.SetFrontier(view, frontier) {
		return
	}
	a.mu.Lock()
	a.stats.Advances++
	a.mu.Unlock()
	a.cfg.Tracer.Emit(trace.Event{Kind: trace.Info,
		Detail: "stability: frontier advanced to " + FormatFrontier(frontier)})
	if a.cfg.OnAdvance != nil {
		a.cfg.OnAdvance(view, frontier)
	}
}
