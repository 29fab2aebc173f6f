package node

import (
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/wire"
)

// ownerRule is the liveness layer's one owner rule: whose health decides
// whether an assumption's lease runs from first sighting (hosted here)
// or from its owner's last word (hosted elsewhere). By default the owner
// is the minting node. The two fields are where callers differ.
type ownerRule struct {
	self int
	// byRing: the owner is the AID's ring owner, the node that actually
	// adjudicates it (hoped --data-root).
	byRing bool
	// followAdopter: a dead minter whose process was transplanted is
	// judged by its adopter's health instead (the churn storm's routed
	// client, which otherwise keeps the minter rule: the AIDs it mints
	// are leased locally wherever the ring sends them).
	followAdopter bool
}

func ruleFor(cfg *Config) ownerRule {
	return ownerRule{self: cfg.ID, byRing: cfg.DataRoot != "", followAdopter: cfg.Ring != nil}
}

// status answers core.LivenessConfig.Owner for a, given the ring owner
// lookup, the transplant map and the failure detector.
func (r ownerRule) status(a ids.AID, ring func(ids.AID) (int, uint64, bool),
	adopter func(ids.PID) (ids.PID, bool), health func(int) wire.PeerHealth) core.OwnerStatus {
	owner := wire.NodeOf(a.PID())
	if r.byRing {
		if o, _, ok := ring(a); ok {
			owner = o
		}
	}
	if owner == r.self {
		return core.OwnerStatus{}
	}
	h := health(owner)
	if h.State == wire.PeerDead && r.followAdopter {
		if pid, ok := adopter(a.PID()); ok {
			h = health(wire.NodeOf(pid))
		}
	}
	return core.OwnerStatus{Remote: true, Dead: h.State == wire.PeerDead, LastHeard: h.LastHeard}
}
