package oracle

import (
	"fmt"
	"reflect"
	"sort"

	"github.com/hope-dist/hope/internal/cluster"
)

// CheckOwnership is the sharded-ownership invariant for clustered
// storms: after a churn round quiesces, every surviving node's view
// must agree on the live member set, and the consistent-hash ring of
// that set must assign every key to a live member. views maps each
// surviving node's ID to the view it reported (e.g. parsed from its
// HOPED VIEW lines); keys are the 64-bit names to spot-check —
// typically the storm's root PIDs plus every AID the client still holds
// speculation on. Every ring is cluster.NewRing(live, DefaultVNodes), a
// pure function of the live set, so agreement on the views is agreement
// on every key's owner.
func CheckOwnership(views map[int]cluster.View, keys []uint64) error {
	_, err := agreedRing(views, keys)
	return err
}

// agreedRing runs CheckOwnership and returns the agreed ring.
func agreedRing(views map[int]cluster.View, keys []uint64) (*cluster.Ring, error) {
	if len(views) == 0 {
		return nil, fmt.Errorf("ownership: no views to check")
	}
	nodes := make([]int, 0, len(views))
	for id := range views {
		nodes = append(nodes, id)
	}
	sort.Ints(nodes)

	ref := nodes[0]
	refLive := views[ref].Live()
	if len(refLive) == 0 {
		return nil, fmt.Errorf("ownership: node %d reports an empty live set", ref)
	}
	for _, id := range nodes[1:] {
		if live := views[id].Live(); !reflect.DeepEqual(live, refLive) {
			return nil, fmt.Errorf("ownership: live sets diverge: node %d sees %v, node %d sees %v",
				ref, refLive, id, live)
		}
	}
	// A surviving node must consider itself live, and every reporting
	// node must be in the agreed live set (an evicted node's report
	// would mean a zombie still serving its old shard).
	liveSet := make(map[int]bool, len(refLive))
	for _, id := range refLive {
		liveSet[id] = true
	}
	for _, id := range nodes {
		if !liveSet[id] {
			return nil, fmt.Errorf("ownership: node %d reported a view but is not in the live set %v", id, refLive)
		}
	}

	ring := cluster.NewRing(refLive, cluster.DefaultVNodes)
	for _, key := range keys {
		if owner, ok := ring.Owner(key); !ok || !liveSet[owner] {
			return nil, fmt.Errorf("ownership: key %#x owned by %d (ok=%v), not in live set %v", key, owner, ok, refLive)
		}
	}
	return ring, nil
}

// CheckMigration is the post-migration invariant for ownership-routed
// churn: after views converge and shards migrate, every live assumption
// machine must be hosted by exactly one node, and that node must be the
// ring-designated owner — an AID hosted nowhere was lost in transfer, an
// AID hosted twice can double-apply adjudications. hosted maps each
// surviving node's ID to the AID keys it reports hosting live (moved
// tombstones excluded). verdicts, when non-nil, are the adjudication
// outcomes the routed run retained, checked against control — the same
// workload's outcomes from a no-churn run: a key missing from verdicts
// lost its adjudication, a differing value diverged. It subsumes
// CheckOwnership over the hosted key set.
func CheckMigration(views map[int]cluster.View, hosted map[int][]uint64,
	verdicts, control map[uint64]bool) error {
	var keys []uint64
	hostOf := make(map[uint64][]int)
	hostNodes := make(map[int]bool, len(hosted))
	for node, aids := range hosted {
		hostNodes[node] = true
		for _, a := range aids {
			if len(hostOf[a]) == 0 {
				keys = append(keys, a)
			}
			hostOf[a] = append(hostOf[a], node)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ring, err := agreedRing(views, keys)
	if err != nil {
		return fmt.Errorf("migration: %w", err)
	}
	for node := range hostNodes {
		if _, ok := views[node]; !ok {
			return fmt.Errorf("migration: node %d reports hosted AIDs but no view", node)
		}
	}
	for _, a := range keys {
		hosts := hostOf[a]
		if len(hosts) != 1 {
			sort.Ints(hosts)
			return fmt.Errorf("migration: AID %#x hosted by %d nodes %v, want exactly one", a, len(hosts), hosts)
		}
		owner, ok := ring.Owner(a)
		if !ok || owner != hosts[0] {
			return fmt.Errorf("migration: AID %#x hosted by %d but ring designates %d (ok=%v)",
				a, hosts[0], owner, ok)
		}
	}
	for a, want := range control {
		got, ok := verdicts[a]
		if !ok {
			return fmt.Errorf("migration: adjudication of %#x lost: control decided %v, routed run retained nothing", a, want)
		}
		if got != want {
			return fmt.Errorf("migration: outcome of %#x diverges: routed run %v, no-churn control %v", a, got, want)
		}
	}
	return nil
}
