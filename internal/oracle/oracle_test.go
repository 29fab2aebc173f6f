package oracle

import (
	"errors"
	"reflect"
	"testing"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/stability"
	"github.com/hope-dist/hope/internal/transport"
)

func TestCheckWorker(t *testing.T) {
	ok := core.Status{Completed: true, AllDefinite: true}
	if err := CheckWorker("w", ok); err != nil {
		t.Fatal(err)
	}
	if err := CheckWorker("w", core.Status{Completed: false, AllDefinite: true}); err == nil {
		t.Fatal("incomplete worker passed")
	}
	if err := CheckWorker("w", core.Status{Completed: true, AllDefinite: false}); err == nil {
		t.Fatal("speculative worker passed")
	}
}

func TestCheckOutcomes(t *testing.T) {
	verdict := map[ids.AID]bool{1: true, 2: false}
	good := []Outcome{{AID: 1, Result: true}, {AID: 2, Result: false}, {AID: 1, Result: true}}
	if err := CheckOutcomes("w", good, verdict); err != nil {
		t.Fatal(err)
	}
	if err := CheckOutcomes("w", []Outcome{{AID: 2, Result: true}}, verdict); err == nil {
		t.Fatal("retained wrong guess passed")
	}
	if err := CheckOutcomes("w", []Outcome{{AID: 9, Result: true}}, verdict); err == nil {
		t.Fatal("unknown AID passed")
	}
}

func TestCheckTerminations(t *testing.T) {
	boom := errors.New("rolled back")
	if err := CheckTerminations([]core.Status{
		{Terminated: false},
		{Terminated: true, Err: boom},
	}); err != nil {
		t.Fatal(err)
	}
	if err := CheckTerminations([]core.Status{{Terminated: true}}); err == nil {
		t.Fatal("silent termination passed")
	}
}

// TestExpectedFinalLine pins the sequential replay against hand-traced
// cases: each report prints a total, page-wraps at pageSize (one newpage
// call), then prints a trailer.
func TestExpectedFinalLine(t *testing.T) {
	cases := []struct{ pageSize, n, want, newpages int }{
		{3, 0, 0, 0},
		{3, 1, 2, 0},  // total(1), trailer(2)
		{3, 2, 1, 1},  // …then total(3) wraps to 0, trailer(1)
		{3, 4, 1, 2},  // …total(2), trailer(3); total(4) wraps, trailer(1)
		{2, 1, 2, 0},  // total(1), trailer(2)
		{10, 4, 8, 0}, // no wraps: 2 lines per report
	}
	for _, c := range cases {
		if got := ExpectedFinalLine(c.pageSize, c.n); got != c.want {
			t.Errorf("ExpectedFinalLine(%d, %d) = %d, want %d", c.pageSize, c.n, got, c.want)
		}
		if line, np := ExpectedLayout(c.pageSize, c.n); line != c.want || np != c.newpages {
			t.Errorf("ExpectedLayout(%d, %d) = %d, %d, want %d, %d", c.pageSize, c.n, line, np, c.want, c.newpages)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	def := []int64{100, 101}
	got, err := ParseSeeds("", def)
	if err != nil || !reflect.DeepEqual(got, def) {
		t.Fatalf("empty input: %v, %v", got, err)
	}
	got, err = ParseSeeds(" 7, 8 ,9 ", def)
	if err != nil || !reflect.DeepEqual(got, []int64{7, 8, 9}) {
		t.Fatalf("list input: %v, %v", got, err)
	}
	if _, err := ParseSeeds("7,x", def); err == nil {
		t.Fatal("bad seed accepted")
	}
}

func TestFIFOTap(t *testing.T) {
	tap := NewFIFOTap(transport.NewLocal())
	defer tap.Close()
	var got int
	tap.Register(5, func(*msg.Message) { got++ })

	send := func(srcSeq uint64) {
		tap.Send(&msg.Message{Kind: msg.KindData, From: 1, To: 5, Payload: "x",
			SrcNode: 1, SrcSeq: srcSeq})
	}
	send(1)
	send(2)
	send(5) // gap: legal (dead letters consume seqs)
	send(0) // local delivery: not audited
	tap.Drain()
	if v := tap.Violations(); len(v) != 0 {
		t.Fatalf("clean stream flagged: %v", v)
	}
	send(3) // behind the watermark: a duplicate re-entering the stream
	tap.Drain()
	v := tap.Violations()
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
	if got != 5 {
		t.Fatalf("handler ran %d times, want 5 (tap must still deliver)", got)
	}
}

// stabilityCut builds a valid double sweep for members 0 and 1: both
// quiescent, nothing unsettled, counters frozen across the sweeps, and
// everything sent by sweep one delivered by sweep two.
func stabilityCut(view uint64) (r1, r2 map[int]stability.Report) {
	mk := func(node int, sweep uint8, maxEpoch uint32, sent, delivered map[int]uint64) stability.Report {
		return stability.Report{
			Node: node, ViewEpoch: view, Round: 1, Sweep: sweep,
			Events: uint64(10 + node), MaxEpoch: maxEpoch, Quiet: true,
			Sent: sent, Delivered: delivered,
		}
	}
	r1 = map[int]stability.Report{
		0: mk(0, 1, 41, map[int]uint64{1: 5}, map[int]uint64{1: 7}),
		1: mk(1, 1, 17, map[int]uint64{0: 7}, map[int]uint64{0: 5}),
	}
	r2 = map[int]stability.Report{
		0: mk(0, 2, 41, map[int]uint64{1: 5}, map[int]uint64{1: 7}),
		1: mk(1, 2, 17, map[int]uint64{0: 7}, map[int]uint64{0: 5}),
	}
	return r1, r2
}

func TestCheckStability(t *testing.T) {
	members := []int{0, 1}

	// A clean run: one advance derived from a valid cut, emissions at or
	// below the watermark in force.
	audit := stability.NewAudit()
	r1, r2 := stabilityCut(1)
	audit.Advanced(stability.AdvanceRecord{
		ViewEpoch: 1, Members: members, R1: r1, R2: r2,
		Frontier: map[int]uint32{0: 41, 1: 17},
	})
	tr := stability.NewTracker(0)
	tr.SetAudit(audit)
	tr.SetFrontier(1, map[int]uint32{0: 41, 1: 17})
	tr.Emitted(41) // at the watermark: legal
	tr.Emitted(3)  // below it: legal
	if err := CheckStability(audit); err != nil {
		t.Fatalf("clean audit flagged: %v", err)
	}

	// Churn: node 1 died with an unacked in-flight frame (it sent seq 8
	// toward node 0; node 0 had delivered only 7 by sweep two). A cut
	// that advanced anyway is a protocol bug — the watermark must wait
	// for the epoch floor to evict the dead member, not step past its
	// frames.
	audit = stability.NewAudit()
	r1, r2 = stabilityCut(1)
	in1 := r1[1]
	in1.Sent = map[int]uint64{0: 8}
	r1[1] = in1
	in2 := r2[1]
	in2.Sent = map[int]uint64{0: 8}
	r2[1] = in2
	audit.Advanced(stability.AdvanceRecord{
		ViewEpoch: 1, Members: members, R1: r1, R2: r2,
		Frontier: map[int]uint32{0: 41, 1: 17},
	})
	if err := CheckStability(audit); err == nil {
		t.Fatal("advance past a dead member's unacked frames passed")
	}

	// The legitimate resolution: the view's epoch floor evicted node 1,
	// so the next advance runs over members {0} alone and validates
	// without the dead member's reports (its frontier entry frozen).
	audit = stability.NewAudit()
	solo1 := map[int]stability.Report{0: {
		Node: 0, ViewEpoch: 2, Round: 2, Sweep: 1, Events: 30, MaxEpoch: 55,
		Quiet: true,
	}}
	solo2 := map[int]stability.Report{0: {
		Node: 0, ViewEpoch: 2, Round: 2, Sweep: 2, Events: 30, MaxEpoch: 55,
		Quiet: true,
	}}
	audit.Advanced(stability.AdvanceRecord{
		ViewEpoch: 2, Members: []int{0}, R1: solo1, R2: solo2,
		Frontier: map[int]uint32{0: 55},
	})
	if err := CheckStability(audit); err != nil {
		t.Fatalf("post-eviction solo advance flagged: %v", err)
	}

	// A frontier that does not match the cut's own maxima.
	audit = stability.NewAudit()
	r1, r2 = stabilityCut(1)
	audit.Advanced(stability.AdvanceRecord{
		ViewEpoch: 1, Members: members, R1: r1, R2: r2,
		Frontier: map[int]uint32{0: 99, 1: 17},
	})
	if err := CheckStability(audit); err == nil {
		t.Fatal("frontier above the cut maxima passed")
	}

	// A later advance regressing a node's frontier entry.
	audit = stability.NewAudit()
	r1, r2 = stabilityCut(1)
	audit.Advanced(stability.AdvanceRecord{
		ViewEpoch: 1, Members: members, R1: r1, R2: r2,
		Frontier: map[int]uint32{0: 41, 1: 17},
	})
	lo1, lo2 := stabilityCut(1)
	for n, r := range lo1 {
		r.MaxEpoch = 9
		lo1[n] = r
	}
	for n, r := range lo2 {
		r.MaxEpoch = 9
		lo2[n] = r
	}
	audit.Advanced(stability.AdvanceRecord{
		ViewEpoch: 1, Members: members, R1: lo1, R2: lo2,
		Frontier: map[int]uint32{0: 9, 1: 9},
	})
	if err := CheckStability(audit); err == nil {
		t.Fatal("regressing frontier passed")
	}

	// An output released above the watermark in force at emission.
	audit = stability.NewAudit()
	tr = stability.NewTracker(0)
	tr.SetAudit(audit)
	tr.SetFrontier(1, map[int]uint32{0: 41})
	tr.Emitted(42)
	if err := CheckStability(audit); err == nil {
		t.Fatal("emission above the watermark passed")
	}
}

func TestCheckLiveness(t *testing.T) {
	deadOwned := func(a ids.AID) bool { return a == 7 }
	iid := ids.IntervalID{Proc: 3, Seq: 1, Epoch: 1}

	// Committed intervals may have depended on the dead node while it
	// lived; only surviving speculation is a liveness violation.
	committed := []core.IntervalInfo{{ID: iid, Definite: true, IDO: []ids.AID{7}}}
	if err := CheckLiveness("w", committed, deadOwned); err != nil {
		t.Fatalf("committed interval flagged: %v", err)
	}
	liveOther := []core.IntervalInfo{{ID: iid, IDO: []ids.AID{8}, Cut: []ids.AID{9}}}
	if err := CheckLiveness("w", liveOther, deadOwned); err != nil {
		t.Fatalf("speculation on a live node flagged: %v", err)
	}
	if err := CheckLiveness("w", []core.IntervalInfo{{ID: iid, IDO: []ids.AID{7}}}, deadOwned); err == nil {
		t.Fatal("surviving IDO speculation on a dead-owned assumption passed")
	}
	if err := CheckLiveness("w", []core.IntervalInfo{{ID: iid, Cut: []ids.AID{7}}}, deadOwned); err == nil {
		t.Fatal("unconfirmed cut on a dead-owned assumption passed")
	}
}
