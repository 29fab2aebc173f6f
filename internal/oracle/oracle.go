// Package oracle is the shared invariant checker for HOPE's chaos
// surfaces. Three harnesses drive randomized workloads against the
// runtime — the in-process soak (chaos_test.go at the repo root), its
// fault-injected variant over internal/faultwire, and the multi-node
// wire storm (internal/harness, `hopebench chaos`) — and all three must
// agree on what "correct" means. The checks live here once:
//
//   - a surviving worker is complete, definite, and its retained guess
//     results match the assumptions' decided verdicts (paper §4: after
//     quiescence every retained interval is definite);
//   - a terminated process carries the error that killed it — rollback
//     never silently discards a process;
//   - per-pair wire FIFO holds at the delivery boundary: the sequence
//     numbers a node stamps on messages from one peer are strictly
//     increasing in delivery order, so a resent or duplicated frame can
//     never re-enter the stream behind the dedup watermark;
//   - the committed print-server layout equals a sequential replay
//     (ExpectedFinalLine), byte-stable across crashes and partitions;
//   - with the stability watermark on, every recorded frontier advance
//     re-validates as a consistent quiescent cut, frontiers never
//     regress, and no gated output was released above the watermark
//     (CheckStability).
//
// Functions return errors rather than calling t.Fatal so the wire
// harness can use them outside a *testing.T.
package oracle

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/stability"
	"github.com/hope-dist/hope/internal/transport"
)

// Outcome is one retained guess result, recorded by a worker as it ran.
type Outcome struct {
	AID    ids.AID
	Result bool
}

// CheckWorker verifies a surviving worker's terminal state: it ran to
// completion and every interval in its retained history is definite.
func CheckWorker(name string, st core.Status) error {
	if !st.Completed {
		return fmt.Errorf("%s incomplete: %+v", name, st)
	}
	if !st.AllDefinite {
		return fmt.Errorf("%s retains speculative intervals after quiescence: %+v", name, st)
	}
	return nil
}

// CheckOutcomes verifies that every retained guess result matches the
// assumption's decided verdict — the paper's definiteness property made
// concrete: speculation may be wrong mid-run, never after quiescence.
func CheckOutcomes(name string, got []Outcome, verdict map[ids.AID]bool) error {
	for i, o := range got {
		want, ok := verdict[o.AID]
		if !ok {
			return fmt.Errorf("%s outcome %d: guess on unknown AID %v", name, i, o.AID)
		}
		if o.Result != want {
			return fmt.Errorf("%s outcome %d: guess(%v)=%v retained, verdict is %v",
				name, i, o.AID, o.Result, want)
		}
	}
	return nil
}

// CheckLiveness verifies the liveness invariant after a storm with a
// permanent death: no surviving interval may still be speculative on an
// assumption the dead node owned. Every such interval must have been
// committed (its dependency resolved before the death) or rolled back
// (the liveness layer auto-denied the orphan). deadOwned reports
// whether an assumption was owned by a dead node; hist is one worker's
// HistorySnapshot. Without the liveness layer this check cannot even be
// reached — the run never quiesces.
func CheckLiveness(name string, hist []core.IntervalInfo, deadOwned func(ids.AID) bool) error {
	for _, ii := range hist {
		if ii.Definite {
			continue
		}
		for _, a := range ii.IDO {
			if deadOwned(a) {
				return fmt.Errorf("%s interval %v still speculative on dead-owned %v", name, ii.ID, a)
			}
		}
		for _, a := range ii.Cut {
			if deadOwned(a) {
				return fmt.Errorf("%s interval %v holds unconfirmed cut on dead-owned %v", name, ii.ID, a)
			}
		}
	}
	return nil
}

// CheckStability audits a watermark-gated run after the fact. Every
// recorded frontier advance is re-derived from its own sweep reports:
// the double collection must still validate as a consistent quiescent
// cut (stability.ValidCut — this is what catches the churn hazard: a
// dead member's unacked in-flight frames fail the drain check, so a
// cut that advanced past them is a protocol bug, not an eviction
// race), and the advanced frontier must be exactly the cut's per-member
// maxima. Across advances each node's frontier entry must be monotone.
// Finally, no gated emission may have been released above the
// watermark: every emission's interval epoch must be covered by the
// emitting node's frontier entry in force at release time.
func CheckStability(audit *stability.Audit) error {
	high := make(map[int]uint32)
	for i, adv := range audit.Advances() {
		if err := stability.ValidCut(adv.ViewEpoch, adv.Members, adv.R1, adv.R2); err != nil {
			return fmt.Errorf("stability advance %d (view e%d): recorded cut does not validate: %w",
				i, adv.ViewEpoch, err)
		}
		want := stability.CutFrontier(adv.Members, adv.R2)
		for n, e := range adv.Frontier {
			if want[n] != e {
				return fmt.Errorf("stability advance %d: frontier entry %d:%d does not match cut maximum %d",
					i, n, e, want[n])
			}
		}
		for n, e := range want {
			if _, ok := adv.Frontier[n]; !ok {
				return fmt.Errorf("stability advance %d: cut maximum %d:%d missing from frontier", i, n, e)
			}
		}
		for n, e := range adv.Frontier {
			if e < high[n] {
				return fmt.Errorf("stability advance %d: frontier for node %d regressed %d -> %d",
					i, n, high[n], e)
			}
			high[n] = e
		}
	}
	for i, em := range audit.Emissions() {
		if em.Epoch > em.Frontier {
			return fmt.Errorf("stability emission %d: node %d released epoch %d above its watermark %d",
				i, em.Node, em.Epoch, em.Frontier)
		}
	}
	return nil
}

// CheckTerminations verifies rollback accounting across a whole system:
// every terminated process must carry the error that killed it. A
// terminated process without an error is a process the runtime lost
// track of — resurrection of a rolled-back interval shows up here.
func CheckTerminations(snaps []core.Status) error {
	for _, st := range snaps {
		if st.Terminated && st.Err == nil {
			return fmt.Errorf("terminated process without error: %+v", st)
		}
	}
	return nil
}

// ExpectedFinalLine replays the print-server pagination workload
// sequentially: the line counter the server must hold after n reports at
// the given page size, regardless of speculation, rollbacks, crashes, or
// partitions along the way. (The chaos harness, the perf benchmark and
// cmd/hoped's crash tests check against this replay.)
func ExpectedFinalLine(pageSize, n int) int {
	line, _ := ExpectedLayout(pageSize, n)
	return line
}

// ExpectedLayout is the sequential replay behind ExpectedFinalLine: each
// report prints a total, then a trailer, with the worker's newpage
// landing between them whenever the total reaches the page boundary. It
// returns the final line counter and the number of newpage calls. The
// streamed worker's FIFO ordering makes this the unique correct layout,
// so the newpage count is a no-churn control for migrated runs.
func ExpectedLayout(pageSize, n int) (line, newpages int) {
	for i := 0; i < n; i++ {
		line++ // total
		if line >= pageSize {
			line = 0 // newpage
			newpages++
		}
		line++ // trailer
	}
	return line, newpages
}

// ParseSeeds parses a comma-separated seed list ("1,2,3"). Empty input
// returns def. The HOPE_CHAOS_SEEDS environment variable and the chaos
// harness --seeds flag both feed through here.
func ParseSeeds(s string, def []int64) ([]int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return def, nil
	}
	var seeds []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("oracle: bad seed %q in %q: %w", f, s, err)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

// FIFOTap wraps a transport and audits per-peer FIFO at the delivery
// boundary: the wire sequence numbers stamped on messages from one
// source node (msg.Message.SrcNode/SrcSeq) must be strictly increasing
// in delivery order. A duplicate that slipped past the receive-side
// dedup, or a resent frame re-entering the stream behind the watermark,
// appears as a non-increasing seq and is recorded as a violation.
//
// Gaps are legal — frames to unregistered PIDs (dead letters) consume
// sequence numbers this tap never sees. SrcSeq 0 marks local/simulated
// delivery and is not audited.
type FIFOTap struct {
	transport.Transport

	mu   sync.Mutex
	last map[int]uint64 // source node → highest wire seq delivered
	bad  []string
}

// NewFIFOTap wraps inner; register handlers through the tap.
func NewFIFOTap(inner transport.Transport) *FIFOTap {
	return &FIFOTap{Transport: inner, last: make(map[int]uint64)}
}

// Register interposes the FIFO audit before the real handler.
func (t *FIFOTap) Register(pid ids.PID, h transport.Handler) {
	t.Transport.Register(pid, func(m *msg.Message) {
		if m.SrcSeq != 0 {
			t.mu.Lock()
			if last := t.last[m.SrcNode]; m.SrcSeq <= last {
				t.bad = append(t.bad, fmt.Sprintf(
					"pid %v: frame seq %d from node %d delivered after seq %d (%s)",
					pid, m.SrcSeq, m.SrcNode, last, m.Kind))
			} else {
				t.last[m.SrcNode] = m.SrcSeq
			}
			t.mu.Unlock()
		}
		h(m)
	})
}

// Violations returns every FIFO inversion observed so far.
func (t *FIFOTap) Violations() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.bad...)
}
