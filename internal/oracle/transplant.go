package oracle

import (
	"fmt"
	"sort"

	"github.com/hope-dist/hope/internal/cluster"
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
)

// CheckTransplant is the process-transplant invariant for churn storms
// that SIGKILL a process-hosting node (DESIGN.md §13): after the
// survivors converge on the death and announce their adoptions, every
// user process the corpse hosted must have been reborn exactly once —
// by the survivor the agreed ring designates — and every client-facing
// process must reach exactly one final outcome despite the host death.
//
//   - corpse is the dead node's ID; nodeOf maps a PID to its hosting
//     node (the wire namespace split, passed in so the oracle stays
//     transport-agnostic like CheckOwnership).
//   - views maps each surviving node to the post-death view it
//     announced; the ring they agree on decides who was entitled to
//     adopt what. (The views are the post-death, pre-replacement-join
//     ones: adoption happens at death time, before the ring changes
//     again.)
//   - announced maps each surviving node to the old→new incarnation
//     pairs it announced (its HOPED TRANSPLANTED map). A node that
//     adopted nothing announces an empty list, which is legal.
//   - outcomes maps each transplanted client process (by its OLD pid)
//     to how many distinct final outcomes the client observed for it.
//     Exactly one is required: zero means the process was lost with the
//     host, more than one means twin incarnations both externalized.
//     nil skips the outcome check (forensic-only callers).
//
// The at-most-one-incarnation argument this validates: the ring is a
// pure function of the agreed view, so survivors partition the corpse's
// PIDs without overlap; a pair announced by a node the ring did not
// designate, or a PID announced twice, is a fence breach that could let
// two incarnations of one process both externalize.
func CheckTransplant(corpse int, nodeOf func(ids.PID) int, views map[int]cluster.View,
	announced map[int][]core.TransplantPair, outcomes map[ids.PID]int) error {
	if len(views) == 0 {
		return fmt.Errorf("transplant: no views to check")
	}
	// The survivors must agree on membership before their rings mean
	// anything; reuse the shared ownership check over the adopted PIDs.
	var oldKeys []uint64
	adopterOf := make(map[ids.PID]int)
	newSeen := make(map[ids.PID]int)
	nodes := make([]int, 0, len(announced))
	for id := range announced {
		nodes = append(nodes, id)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		if _, ok := views[node]; !ok {
			return fmt.Errorf("transplant: node %d announced adoptions but no view", node)
		}
		for _, pr := range announced[node] {
			if pr.Old == pr.New {
				return fmt.Errorf("transplant: node %d announced identity pair %v", node, pr.Old)
			}
			if got := nodeOf(pr.Old); got != corpse {
				return fmt.Errorf("transplant: node %d adopted %v from node %d, corpse is %d",
					node, pr.Old, got, corpse)
			}
			if got := nodeOf(pr.New); got != node {
				return fmt.Errorf("transplant: node %d reborn %v as %v, which lives in node %d's namespace",
					node, pr.Old, pr.New, got)
			}
			if prev, dup := adopterOf[pr.Old]; dup {
				return fmt.Errorf("transplant: twin incarnations of %v: adopted by node %d and node %d",
					pr.Old, prev, node)
			}
			if prev, dup := newSeen[pr.New]; dup {
				return fmt.Errorf("transplant: reborn PID %v reused for two corpse processes (node %d announced it twice, first for old %v)",
					pr.New, node, prev)
			}
			adopterOf[pr.Old] = node
			newSeen[pr.New] = node
			oldKeys = append(oldKeys, uint64(pr.Old))
		}
	}
	ring, err := agreedRing(views, oldKeys)
	if err != nil {
		return fmt.Errorf("transplant: %w", err)
	}

	// Ring designation: the adopter of each old PID must be the owner
	// the agreed ring assigns it — a non-designated adoption is exactly
	// the race the first-mapping-wins fence exists to lose.
	for old, node := range adopterOf {
		owner, ok := ring.Owner(uint64(old))
		if !ok || owner != node {
			return fmt.Errorf("transplant: %v adopted by node %d but the ring designates %d (ok=%v)",
				old, node, owner, ok)
		}
	}

	// One final outcome per client process: the reason the tentpole
	// exists. Zero = the death lost the process anyway; two or more =
	// two incarnations externalized.
	for old, n := range outcomes {
		if n != 1 {
			adopter, adopted := adopterOf[old]
			return fmt.Errorf("transplant: process %v reached %d final outcomes, want exactly 1 (adopted=%v by node %d)",
				old, n, adopted, adopter)
		}
		if _, ok := adopterOf[old]; !ok {
			return fmt.Errorf("transplant: process %v reached its outcome but no survivor announced adopting it", old)
		}
	}
	return nil
}
