package stability

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestTrackerCounters(t *testing.T) {
	tr := NewTracker(2)
	if tr.Node() != 2 {
		t.Fatalf("node = %d", tr.Node())
	}
	tr.Opened(5)
	tr.Opened(9)
	tr.Issued(12)
	tr.Settled(5)
	events, unsettled, maxEpoch := tr.Report()
	if events != 4 || unsettled != 1 || maxEpoch != 12 {
		t.Fatalf("report = (%d, %d, %d), want (4, 1, 12)", events, unsettled, maxEpoch)
	}
	tr.Revoked(9) // un-finalize: only the event counter moves
	tr.Settled(9)
	events, unsettled, _ = tr.Report()
	if events != 6 || unsettled != 0 {
		t.Fatalf("after revoke+settle: (%d, %d), want (6, 0)", events, unsettled)
	}
}

func TestTrackerFrontier(t *testing.T) {
	tr := NewTracker(1)
	if tr.Covered(1) {
		t.Fatal("empty frontier covers epoch 1")
	}
	if !tr.SetFrontier(1, map[int]uint32{0: 4, 1: 7}) {
		t.Fatal("first frontier did not advance")
	}
	if !tr.Covered(7) || tr.Covered(8) {
		t.Fatal("coverage must follow this node's own frontier entry")
	}
	// Stale advance from an older round: nothing regresses, not advanced.
	if tr.SetFrontier(1, map[int]uint32{0: 2, 1: 6}) {
		t.Fatal("stale frontier reported as advance")
	}
	// Partial advance still merges per-node maxima.
	if !tr.SetFrontier(2, map[int]uint32{0: 9, 1: 5}) {
		t.Fatal("partial advance not reported")
	}
	view, f := tr.Frontier()
	if view != 2 || !reflect.DeepEqual(f, map[int]uint32{0: 9, 1: 7}) {
		t.Fatalf("frontier = e%d %v, want e2 map[0:9 1:7]", view, f)
	}
	if got := FormatFrontier(f); got != "0:9,1:7" {
		t.Fatalf("FormatFrontier = %q", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	p, err := Decode(EncodeSweep(3, 17, 2))
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != pkSweep || p.ViewEpoch != 3 || p.Round != 17 || p.Sweep != 2 {
		t.Fatalf("sweep round-trip: %+v", p)
	}

	r := Report{
		Node: 4, ViewEpoch: 9, Round: 31, Sweep: 1,
		Events: 1 << 40, Unsettled: 3, MaxEpoch: 77, Quiet: true,
		Sent:      map[int]uint64{0: 12, 2: 999},
		Delivered: map[int]uint64{0: 11},
	}
	p, err = Decode(EncodeReport(r))
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != pkReport || !reflect.DeepEqual(p.Report, r) {
		t.Fatalf("report round-trip: %+v != %+v", p.Report, r)
	}

	f := map[int]uint32{0: 41, 1: 17, 5: 3}
	p, err = Decode(EncodeAdvance(7, f))
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != pkAdvance || p.ViewEpoch != 7 || !reflect.DeepEqual(p.Frontier, f) {
		t.Fatalf("advance round-trip: %+v", p)
	}

	if w := EncodeWant(); len(w) != 1 {
		t.Fatalf("want frame is %d bytes, want 1", len(w))
	}
	if p, err = Decode(EncodeWant()); err != nil || p.Kind != pkWant {
		t.Fatalf("want round-trip: %+v, %v", p, err)
	}

	for _, bad := range [][]byte{nil, {}, {pkSweep}, {pkReport, 1, 0x80}, {99, 1, 2}} {
		if _, err := Decode(bad); err == nil {
			t.Fatalf("Decode(%v) accepted", bad)
		}
	}
	// Truncations of a valid frame must error, never panic.
	full := EncodeReport(r)
	for i := 1; i < len(full); i++ {
		if _, err := Decode(full[:i]); err == nil {
			t.Fatalf("truncated report (%d/%d bytes) accepted", i, len(full))
		}
	}
}

// cutReports builds a canonical valid double sweep over members {0,1,2},
// which each case below perturbs into a specific obstruction.
func cutReports() (r1, r2 map[int]Report) {
	mk := func(node int, sweep uint8) Report {
		sent := map[int]uint64{}
		delivered := map[int]uint64{}
		for p := 0; p < 3; p++ {
			if p == node {
				continue
			}
			sent[p] = uint64(10*node + p)
			delivered[p] = uint64(10*p + node) // exactly what p sent us
		}
		return Report{
			Node: node, ViewEpoch: 1, Round: 1, Sweep: sweep,
			Events: uint64(100 + node), MaxEpoch: uint32(20 + node), Quiet: true,
			Sent: sent, Delivered: delivered,
		}
	}
	r1, r2 = map[int]Report{}, map[int]Report{}
	for n := 0; n < 3; n++ {
		r1[n] = mk(n, 1)
		r2[n] = mk(n, 2)
	}
	return r1, r2
}

func TestValidCut(t *testing.T) {
	members := []int{0, 1, 2}
	r1, r2 := cutReports()
	if err := ValidCut(1, members, r1, r2); err != nil {
		t.Fatalf("canonical cut rejected: %v", err)
	}
	want := map[int]uint32{0: 20, 1: 21, 2: 22}
	if got := CutFrontier(members, r2); !reflect.DeepEqual(got, want) {
		t.Fatalf("CutFrontier = %v, want %v", got, want)
	}

	perturb := func(name string, f func(r1, r2 map[int]Report)) {
		p1, p2 := cutReports()
		f(p1, p2)
		if err := ValidCut(1, members, p1, p2); err == nil {
			t.Errorf("%s: cut accepted", name)
		}
	}
	perturb("missing member", func(r1, r2 map[int]Report) { delete(r2, 1) })
	perturb("wrong view", func(r1, r2 map[int]Report) {
		r := r1[0]
		r.ViewEpoch = 2
		r1[0] = r
	})
	perturb("not quiescent", func(r1, r2 map[int]Report) {
		r := r2[2]
		r.Quiet = false
		r2[2] = r
	})
	perturb("unsettled intervals", func(r1, r2 map[int]Report) {
		r := r1[1]
		r.Unsettled = 3
		r1[1] = r
	})
	perturb("events moved between sweeps", func(r1, r2 map[int]Report) {
		r := r2[0]
		r.Events++
		r2[0] = r
	})
	perturb("sent between sweeps", func(r1, r2 map[int]Report) {
		r := r2[1]
		r.Sent = map[int]uint64{0: r.Sent[0] + 1, 2: r.Sent[2]}
		r2[1] = r
	})
	perturb("undrained frames", func(r1, r2 map[int]Report) {
		// Node 2's frames toward node 0 not all delivered by sweep two —
		// the signature of a dead-but-unevicted member.
		r := r2[0]
		r.Delivered = map[int]uint64{1: r.Delivered[1], 2: r.Delivered[2] - 1}
		r2[0] = r
	})
}

// mesh is a synchronous in-memory stability transport for agent tests.
type mesh struct {
	mu     sync.Mutex
	agents map[int]*Agent
}

func (m *mesh) send(from, to int, payload []byte) bool {
	m.mu.Lock()
	a := m.agents[to]
	m.mu.Unlock()
	if a == nil {
		return false
	}
	// Deliver on a fresh goroutine like a real transport read loop would,
	// so no agent lock is held across the hop.
	go a.HandlePayload(from, payload)
	return true
}

// TestAgentRounds runs three agents over an in-memory mesh and waits for
// the two-sweep protocol to advance every node's frontier to the maxima
// the trackers report.
func TestAgentRounds(t *testing.T) {
	m := &mesh{agents: map[int]*Agent{}}
	members := []int{0, 1, 2}
	trackers := map[int]*Tracker{}
	advanced := make(chan map[int]uint32, 64)

	for _, n := range members {
		tr := NewTracker(n)
		// Give each node some settled history: maxEpoch n*10+5, all quiet.
		tr.Opened(uint32(n*10 + 5))
		tr.Settled(uint32(n*10 + 5))
		trackers[n] = tr
	}
	for _, n := range members {
		n := n
		a := NewAgent(Config{
			Node:    n,
			Tracker: trackers[n],
			Members: func() (uint64, []int) { return 1, members },
			Send:    func(to int, b []byte) bool { return m.send(n, to, b) },
			// Quiet and Seqs nil: tracker-only deployment, drain vacuous.
			Interval: 2 * time.Millisecond,
			OnAdvance: func(view uint64, f map[int]uint32) {
				if n == 1 { // any single witness suffices
					advanced <- f
				}
			},
		})
		m.mu.Lock()
		m.agents[n] = a
		m.mu.Unlock()
		a.Start()
		defer a.Stop()
	}

	want := map[int]uint32{0: 5, 1: 15, 2: 25}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case f := <-advanced:
			if reflect.DeepEqual(f, want) {
				// The witness node's own tracker must agree.
				if _, got := trackers[1].Frontier(); !reflect.DeepEqual(got, want) {
					t.Fatalf("tracker frontier %v after advance %v", got, f)
				}
				return
			}
		case <-deadline:
			t.Fatal("no frontier advance within deadline")
		}
	}
}

// TestAgentFollowerSilent checks that a non-leader agent never initiates
// sweeps: with the leader absent from the mesh, no round can complete and
// no frontier advances.
func TestAgentFollowerSilent(t *testing.T) {
	m := &mesh{agents: map[int]*Agent{}}
	members := []int{0, 1} // node 0 leads but is never started
	tr := NewTracker(1)
	tr.Opened(7)
	tr.Settled(7)
	fired := make(chan struct{}, 1)
	a := NewAgent(Config{
		Node:     1,
		Tracker:  tr,
		Members:  func() (uint64, []int) { return 1, members },
		Send:     func(to int, b []byte) bool { return m.send(1, to, b) },
		Interval: time.Millisecond,
		OnAdvance: func(uint64, map[int]uint32) {
			select {
			case fired <- struct{}{}:
			default:
			}
		},
	})
	m.mu.Lock()
	m.agents[1] = a
	m.mu.Unlock()
	a.Start()
	defer a.Stop()

	select {
	case <-fired:
		t.Fatal("follower advanced a frontier without a leader")
	case <-time.After(50 * time.Millisecond):
	}
	if _, f := tr.Frontier(); len(f) != 0 {
		t.Fatalf("follower frontier moved: %v", f)
	}
}
