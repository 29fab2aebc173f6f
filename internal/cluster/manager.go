package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hope-dist/hope/internal/trace"
)

// Transport is the slice of the wire layer the manager needs: address
// registration (so discovered members get dialed) and opaque gossip
// frames. *wire.Node satisfies it.
type Transport interface {
	// SetPeer maps a node ID to its address; the transport dials it.
	SetPeer(id int, addr string)
	// Gossip sends one opaque payload to a peer, best-effort (no ack,
	// no resend — anti-entropy re-sends the state anyway). Reports
	// whether the payload was queued (false: peer dead or closed).
	Gossip(to int, payload []byte) bool
}

// Config parameterizes a Manager.
type Config struct {
	// Self is this node's ID; Addr its advertised listen address.
	Self int
	Addr string
	// Seeds maps bootstrap contacts (ID → address). The seed node of a
	// fresh cluster has none; everyone else needs at least one live
	// seed to find the cluster.
	Seeds map[int]string
	// EpochFloor resumes the view epoch from a previous incarnation's
	// WAL record, so a restarted node cannot gossip a staler view than
	// any it already published.
	EpochFloor uint64
	// Interval is the gossip period (default 150ms). Every tick the
	// manager pushes its view to Fanout random live peers; every view
	// change pushes immediately.
	Interval time.Duration
	// Fanout is how many peers each round targets (default 3).
	Fanout int
	// Transport carries gossip and learns peer addresses. Required.
	Transport Transport
	// Tracer receives cluster events (nil = discard).
	Tracer trace.Tracer
	// OnChange fires (synchronously, under no manager lock) after every
	// view change, with the new view and the ring rebuilt from it.
	OnChange func(View, *Ring)
	// OnDeaths fires once per batch of members newly seen Dead — the
	// ownership-handoff hook: the engine auto-denies what they owned.
	OnDeaths func(dead []int, view View, ring *Ring)
	// OnEvicted fires once if the cluster declares this node dead.
	OnEvicted func(view View)
	// Persist records each view change durably (epoch, live set), so a
	// restart resumes from the last published epoch. Nil = volatile.
	Persist func(epoch uint64, live []int)
}

func (c *Config) norm() error {
	if c.Self < 0 || c.Self >= MaxID {
		return fmt.Errorf("cluster: self ID %d out of range [0,%d)", c.Self, MaxID)
	}
	if c.Transport == nil {
		return fmt.Errorf("cluster: Transport is required")
	}
	for id := range c.Seeds {
		if id < 0 || id >= MaxID {
			return fmt.Errorf("cluster: seed ID %d out of range [0,%d)", id, MaxID)
		}
	}
	if c.Interval <= 0 {
		c.Interval = 150 * time.Millisecond
	}
	if c.Fanout <= 0 {
		c.Fanout = 3
	}
	if c.Tracer == nil {
		c.Tracer = trace.Nop
	}
	return nil
}

// Stats is a snapshot of the manager's counters.
type Stats struct {
	Epoch       uint64
	Live        int
	Dead        int
	GossipSent  uint64 // payloads handed to the transport
	GossipRecv  uint64 // payloads merged
	BadPayloads uint64 // payloads DecodeView rejected
	Evicted     bool
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	out := fmt.Sprintf("epoch=%d live=%d dead=%d gossip=%d/%d bad=%d",
		s.Epoch, s.Live, s.Dead, s.GossipSent, s.GossipRecv, s.BadPayloads)
	if s.Evicted {
		out += " EVICTED"
	}
	return out
}

// Manager runs one node's membership: it folds gossip and detector
// evidence into the Table, keeps the ownership Ring in sync with the
// live view, discovers peer addresses, and spreads the view —
// periodically and immediately on every change. Create with New, wire
// its HandleGossip/GossipReply into the transport's gossip hooks and
// ObserveState into the failure detector, then Start it.
type Manager struct {
	cfg   Config
	table *Table

	mu   sync.Mutex
	ring *Ring
	rng  *rand.Rand

	sent, recv, bad atomic.Uint64

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// New builds a manager (not yet gossiping; call Start). The table
// starts with self Alive plus the configured seeds; seed addresses are
// registered with the transport immediately so the first gossip round
// can reach them.
func New(cfg Config) (*Manager, error) {
	if err := cfg.norm(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:   cfg,
		table: NewTable(cfg.Self, cfg.Addr, cfg.EpochFloor),
		rng:   rand.New(rand.NewSource(int64(cfg.Self)<<20 ^ int64(cfg.EpochFloor))),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for id, addr := range cfg.Seeds {
		if id == cfg.Self {
			continue
		}
		m.table.Seed(id, addr)
		cfg.Transport.SetPeer(id, addr)
	}
	m.mu.Lock()
	m.ring = NewRing(m.table.Live(), DefaultVNodes)
	m.mu.Unlock()
	return m, nil
}

// Start launches the periodic gossip loop. Stop ends it.
func (m *Manager) Start() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.gossipRound()
			}
		}
	}()
}

// Stop ends the gossip loop (idempotent). The manager remains usable
// passively (HandleGossip, ObserveState still merge).
func (m *Manager) Stop() {
	m.once.Do(func() {
		close(m.stop)
		<-m.done
	})
}

// View returns the current membership view.
func (m *Manager) View() View { return m.table.View() }

// Epoch returns the current view epoch.
func (m *Manager) Epoch() uint64 { return m.table.Epoch() }

// Evicted reports whether the cluster has declared this node dead.
func (m *Manager) Evicted() bool { return m.table.Evicted() }

// Ring returns the current ownership ring (rebuilt on every reshard;
// never nil).
func (m *Manager) Ring() *Ring {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring
}

// Owner returns the live member owning key under the current ring.
func (m *Manager) Owner(key uint64) (int, bool) { return m.Ring().Owner(key) }

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	v := m.table.View()
	return Stats{
		Epoch:       v.Epoch,
		Live:        len(v.Live()),
		Dead:        len(v.Dead()),
		GossipSent:  m.sent.Load(),
		GossipRecv:  m.recv.Load(),
		BadPayloads: m.bad.Load(),
		Evicted:     m.table.Evicted(),
	}
}

// HandleGossip merges one inbound gossip payload; wire it into
// wire.GossipConfig.OnPayload. Undecodable payloads are counted and
// dropped — gossip is idempotent anti-entropy, the next round repairs.
func (m *Manager) HandleGossip(from int, payload []byte) {
	v, err := DecodeView(payload)
	if err != nil {
		m.bad.Add(1)
		m.event("cluster: node %d dropped bad gossip from node %d: %v", m.cfg.Self, from, err)
		return
	}
	m.recv.Add(1)
	m.react(m.table.Merge(v))
}

// GossipReply answers an inbound gossip frame with the local view
// (push-pull anti-entropy); wire it into wire.GossipConfig.Reply.
func (m *Manager) GossipReply(from int) []byte {
	payload, err := EncodeView(m.table.View())
	if err != nil {
		return nil
	}
	m.sent.Add(1)
	return payload
}

// ObserveState folds first-hand failure-detector evidence into the
// membership; wire it into wire.HealthConfig.OnPeerState (mapping
// wire.PeerState onto MemberState ordinally).
func (m *Manager) ObserveState(id int, state MemberState) {
	m.react(m.table.Observe(id, state))
}

// Join records a first-hand join (tests and future admin surfaces; the
// normal join path is gossip).
func (m *Manager) Join(id int, addr string) {
	m.react(m.table.Join(id, addr))
}

// react applies a mutation's delta: persist, rebuild the ring, dial
// new members, notify, and push the changed view immediately.
func (m *Manager) react(d Delta) {
	if !d.Changed && !d.SelfEvicted {
		return
	}
	view := m.table.View()
	m.mu.Lock()
	if d.Resharded {
		m.ring = NewRing(view.Live(), DefaultVNodes)
	}
	ring := m.ring
	m.mu.Unlock()

	if m.cfg.Persist != nil {
		m.cfg.Persist(view.Epoch, view.Live())
	}
	for _, j := range d.Joined {
		if j.ID != m.cfg.Self && j.Addr != "" && j.State != StateDead {
			m.cfg.Transport.SetPeer(j.ID, j.Addr)
		}
	}
	if len(d.Died) > 0 {
		m.event("cluster: node %d view e%d: members %v dead, ring now %v",
			m.cfg.Self, view.Epoch, d.Died, ring.Live())
		if m.cfg.OnDeaths != nil {
			m.cfg.OnDeaths(d.Died, view, ring)
		}
	}
	if len(d.Joined) > 0 {
		m.event("cluster: node %d view e%d: joined %v, ring now %v",
			m.cfg.Self, view.Epoch, d.Joined, ring.Live())
	}
	if m.cfg.OnChange != nil {
		m.cfg.OnChange(view, ring)
	}
	if d.SelfEvicted {
		m.event("cluster: node %d EVICTED at e%d — the cluster declared us dead", m.cfg.Self, view.Epoch)
		if m.cfg.OnEvicted != nil {
			m.cfg.OnEvicted(view)
		}
	}
	// Epidemic push: a change spreads now, not a tick later.
	m.gossipRound()
}

// gossipRound pushes the current view to up to Fanout random live
// peers (every live peer in small clusters).
func (m *Manager) gossipRound() {
	view := m.table.View()
	payload, err := EncodeView(view)
	if err != nil {
		m.event("cluster: node %d failed to encode view: %v", m.cfg.Self, err)
		return
	}
	var targets []int
	for _, mm := range view.Members {
		if mm.ID != m.cfg.Self && mm.State != StateDead {
			targets = append(targets, mm.ID)
		}
	}
	if len(targets) > m.cfg.Fanout {
		m.mu.Lock()
		m.rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		m.mu.Unlock()
		targets = targets[:m.cfg.Fanout]
	}
	for _, id := range targets {
		if m.cfg.Transport.Gossip(id, payload) {
			m.sent.Add(1)
		}
	}
}

// event emits a trace.Transport event.
func (m *Manager) event(format string, args ...any) {
	m.cfg.Tracer.Emit(trace.Event{Kind: trace.Transport, Detail: fmt.Sprintf(format, args...)})
}
