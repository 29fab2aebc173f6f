package oracle

import (
	"strings"
	"testing"

	"github.com/hope-dist/hope/internal/cluster"
)

func viewOf(epoch uint64, live, dead []int) cluster.View {
	var v cluster.View
	v.Epoch = epoch
	for _, id := range live {
		v.Members = append(v.Members, cluster.Member{ID: id, State: cluster.StateAlive, Epoch: epoch})
	}
	for _, id := range dead {
		v.Members = append(v.Members, cluster.Member{ID: id, State: cluster.StateDead, Epoch: epoch})
	}
	return v
}

func TestCheckOwnershipAgreement(t *testing.T) {
	keys := []uint64{1, 2, 1 << 48, 7<<48 + 9}
	views := map[int]cluster.View{
		1: viewOf(4, []int{1, 2}, []int{3}),
		2: viewOf(4, []int{1, 2}, []int{3}),
	}
	if err := CheckOwnership(views, keys); err != nil {
		t.Fatalf("agreeing views failed: %v", err)
	}

	// Diverging live sets.
	views[2] = viewOf(4, []int{1, 2, 3}, nil)
	if err := CheckOwnership(views, keys); err == nil ||
		!strings.Contains(err.Error(), "live sets diverge") {
		t.Fatalf("diverging live sets not caught: %v", err)
	}

	// A reporting node missing from the live set (zombie shard server).
	views[2] = viewOf(4, []int{1, 3}, []int{2})
	views[1] = viewOf(4, []int{1, 3}, []int{2})
	if err := CheckOwnership(views, keys); err == nil ||
		!strings.Contains(err.Error(), "not in the live set") {
		t.Fatalf("zombie reporter not caught: %v", err)
	}

	// No views at all.
	if err := CheckOwnership(nil, keys); err == nil {
		t.Fatal("empty views accepted")
	}
}

func TestCheckMigration(t *testing.T) {
	views := map[int]cluster.View{
		1: viewOf(5, []int{1, 2}, []int{3}),
		2: viewOf(5, []int{1, 2}, []int{3}),
	}
	ring := cluster.NewRing([]int{1, 2}, cluster.DefaultVNodes)
	// Shard a handful of keys the way a correct migration would.
	hosted := map[int][]uint64{}
	keys := []uint64{3, 9, 1<<48 + 4, 2<<48 + 7, 5 << 40}
	for _, k := range keys {
		owner, _ := ring.Owner(k)
		hosted[owner] = append(hosted[owner], k)
	}
	verdicts := map[uint64]bool{3: true, 9: false}
	control := map[uint64]bool{3: true, 9: false}
	if err := CheckMigration(views, hosted, verdicts, control); err != nil {
		t.Fatalf("clean migration failed: %v", err)
	}

	// Double-hosted AID (both nodes claim it: adjudications can double-apply).
	err := CheckMigration(views,
		map[int][]uint64{1: {keys[0]}, 2: {keys[0]}}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "hosted by 2 nodes") {
		t.Fatalf("double host not caught: %v", err)
	}

	// Hosted off-owner (the shard never migrated).
	wrongHost := map[int][]uint64{}
	for _, k := range keys[:1] {
		owner, _ := ring.Owner(k)
		other := 1
		if owner == 1 {
			other = 2
		}
		wrongHost[other] = append(wrongHost[other], k)
	}
	if err := CheckMigration(views, wrongHost, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "ring designates") {
		t.Fatalf("off-owner host not caught: %v", err)
	}

	// Lost and diverged adjudications against the control run.
	if err := CheckMigration(views, hosted,
		map[uint64]bool{3: true}, control); err == nil ||
		!strings.Contains(err.Error(), "lost") {
		t.Fatalf("lost adjudication not caught: %v", err)
	}
	if err := CheckMigration(views, hosted,
		map[uint64]bool{3: true, 9: true}, control); err == nil ||
		!strings.Contains(err.Error(), "diverges") {
		t.Fatalf("diverged outcome not caught: %v", err)
	}
}
