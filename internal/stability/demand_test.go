package stability

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncMesh delivers stability frames inline, so one tick runs a whole
// round to completion before it returns: rounds become deterministic.
type syncMesh struct {
	mu     sync.Mutex
	agents map[int]*Agent
	sent   []sentFrame
}

type sentFrame struct {
	from, to int
	p        Payload
}

func (m *syncMesh) send(from, to int, b []byte) bool {
	m.mu.Lock()
	a := m.agents[to]
	if p, err := Decode(b); err == nil {
		m.sent = append(m.sent, sentFrame{from, to, p})
	}
	m.mu.Unlock()
	if a == nil {
		return false
	}
	a.HandlePayload(from, b)
	return true
}

// frames returns the frames sent so far that match keep.
func (m *syncMesh) frames(keep func(sentFrame) bool) []sentFrame {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []sentFrame
	for _, f := range m.sent {
		if keep(f) {
			out = append(out, f)
		}
	}
	return out
}

// settledTracker returns a tracker for node that opened and settled one
// interval at epoch: settled, with work its frontier does not cover.
func settledTracker(node int, epoch uint32) *Tracker {
	tr := NewTracker(node)
	tr.Opened(epoch)
	tr.Settled(epoch)
	return tr
}

// TestReportOrderHole pins the report read order of DESIGN.md §12. Node
// 1 has one frame in flight toward node 2. Node 2's frame lands just
// after its sweep-two quiescence check: its Quiet returns true, then
// the Delivered count its Seqs returns moves past the frame. The frame
// was never seen by the quiescence check, so the round must not advance.
// A report that reads Delivered after Quiet claims the frame drained.
func TestReportOrderHole(t *testing.T) {
	m := &syncMesh{agents: map[int]*Agent{}}
	members := []int{1, 2}
	var delivered atomic.Uint64
	var quietCalls atomic.Int32
	seqs := map[int]func() (map[int]uint64, map[int]uint64){
		1: func() (map[int]uint64, map[int]uint64) {
			return map[int]uint64{2: 1}, map[int]uint64{2: 0}
		},
		2: func() (map[int]uint64, map[int]uint64) {
			return map[int]uint64{1: 0}, map[int]uint64{1: delivered.Load()}
		},
	}
	quiet := map[int]func() bool{
		1: func() bool { return true },
		2: func() bool {
			if quietCalls.Add(1) == 2 { // sweep two: the frame lands now
				delivered.Store(1)
			}
			return true
		},
	}
	advanced := false
	agents := map[int]*Agent{}
	for _, n := range members {
		n := n
		agents[n] = NewAgent(Config{
			Node:      n,
			Tracker:   settledTracker(n, uint32(10*n)),
			Members:   func() (uint64, []int) { return 1, members },
			Send:      func(to int, b []byte) bool { return m.send(n, to, b) },
			Quiet:     quiet[n],
			Seqs:      seqs[n],
			Interval:  time.Hour,
			OnAdvance: func(uint64, map[int]uint32) { advanced = true },
		})
		m.agents[n] = agents[n]
	}
	agents[1].tick()
	if quietCalls.Load() != 2 {
		t.Fatalf("node 2 answered %d sweeps, want 2", quietCalls.Load())
	}
	if advanced {
		t.Fatal("round advanced over a frame its quiescence check never saw")
	}
	if _, f := agents[1].cfg.Tracker.Frontier(); len(f) != 0 {
		t.Fatalf("frontier moved: %v", f)
	}
}

// startMesh starts one agent per member over an asynchronous mesh with
// an hour-long fallback cadence, so only demand can start a round. It
// returns a channel of the frontiers node `witness` applies.
func startMesh(t *testing.T, trackers map[int]*Tracker, witness int) <-chan map[int]uint32 {
	t.Helper()
	m := &mesh{agents: map[int]*Agent{}}
	var members []int
	for n := range trackers {
		members = append(members, n)
	}
	advanced := make(chan map[int]uint32, 16)
	for _, n := range members {
		n := n
		a := NewAgent(Config{
			Node:     n,
			Tracker:  trackers[n],
			Members:  func() (uint64, []int) { return 1, members },
			Send:     func(to int, b []byte) bool { return m.send(n, to, b) },
			Interval: time.Hour,
			OnAdvance: func(_ uint64, f map[int]uint32) {
				if n == witness {
					advanced <- f
				}
			},
		})
		m.mu.Lock()
		m.agents[n] = a
		m.mu.Unlock()
	}
	for _, a := range m.agents {
		a.Start()
		t.Cleanup(a.Stop)
	}
	return advanced
}

// TestRoundsOnDemand: with the fallback cadence out of reach, a round
// still runs when a node settles with uncovered work — on the initiator
// directly, and on a member through a pkWant frame to the initiator.
func TestRoundsOnDemand(t *testing.T) {
	for _, tc := range []struct {
		name   string
		demand int // the node that settles with uncovered work
		want   map[int]uint32
	}{
		{"initiator", 0, map[int]uint32{0: 3, 1: 0}},
		{"member via pkWant", 1, map[int]uint32{0: 0, 1: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trackers := map[int]*Tracker{0: NewTracker(0), 1: NewTracker(1)}
			advanced := startMesh(t, trackers, 0)
			epoch := tc.want[tc.demand]
			trackers[tc.demand].Opened(epoch)
			trackers[tc.demand].Settled(epoch) // the demand signal
			select {
			case f := <-advanced:
				if !reflect.DeepEqual(f, tc.want) {
					t.Fatalf("advanced to %v, want %v", f, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no advance on demand")
			}
		})
	}
}

// TestSweepOneEndsRound: a sweep-one report that is not quiet ends the
// round there — no sweep-two frame is sent — and so does an initiator
// that is not quiet itself, before asking anyone.
func TestSweepOneEndsRound(t *testing.T) {
	for _, busy := range []int{1, 2} {
		m := &syncMesh{agents: map[int]*Agent{}}
		members := []int{1, 2}
		agents := map[int]*Agent{}
		for _, n := range members {
			n := n
			agents[n] = NewAgent(Config{
				Node:     n,
				Tracker:  settledTracker(n, uint32(10*n)),
				Members:  func() (uint64, []int) { return 1, members },
				Send:     func(to int, b []byte) bool { return m.send(n, to, b) },
				Quiet:    func() bool { return n != busy },
				Interval: time.Hour,
			})
			m.agents[n] = agents[n]
		}
		agents[1].tick()
		sweeps := func(s uint8) int {
			return len(m.frames(func(f sentFrame) bool { return f.p.Kind == pkSweep && f.p.Sweep == s }))
		}
		wantSweep1 := 1
		if busy == 1 {
			wantSweep1 = 0
		}
		if got := sweeps(1); got != wantSweep1 {
			t.Errorf("busy node %d: %d sweep-one frames, want %d", busy, got, wantSweep1)
		}
		if got := sweeps(2); got != 0 {
			t.Errorf("busy node %d: %d sweep-two frames after a non-quiet sweep one", busy, got)
		}
		if st := agents[1].Stats(); st != (Stats{Rounds: 1, Sweep1Ends: 1}) {
			t.Errorf("busy node %d: stats %+v", busy, st)
		}
	}
}

// TestBusyNodeDoesNotSpin: a node that stays settled but never quiet
// starts at most one round per demand signal or tick — failed rounds do
// not retry on their own.
func TestBusyNodeDoesNotSpin(t *testing.T) {
	const (
		interval = 20 * time.Millisecond
		window   = 300 * time.Millisecond
	)
	tr := NewTracker(0)
	a := NewAgent(Config{
		Node:     0,
		Tracker:  tr,
		Members:  func() (uint64, []int) { return 1, []int{0} },
		Send:     func(int, []byte) bool { return false },
		Quiet:    func() bool { return false },
		Interval: interval,
	})
	a.Start()
	defer a.Stop()
	start := time.Now()
	issued := 0
	for e := uint32(1); time.Since(start) < window; e++ {
		tr.Issued(e) // settled, uncovered: at most one demand signal each
		issued++
		time.Sleep(10 * time.Millisecond)
	}
	a.Stop()
	ticks := int(time.Since(start)/interval) + 1
	st := a.Stats()
	if st.Rounds == 0 || st.Rounds != st.Sweep1Ends {
		t.Fatalf("stats %+v: want every round ended at sweep one", st)
	}
	if int(st.Rounds) > issued+ticks {
		t.Fatalf("%d rounds from %d signals and %d ticks: the agent spins", st.Rounds, issued, ticks)
	}
}
