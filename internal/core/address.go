package core

import (
	"fmt"
	"slices"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/transport"
)

// This file is the engine's one outbound addressing step (DESIGN.md §7,
// §13). Every message the engine sends — from user processes, the AID
// table, the liveness layer, reinjected corpse traffic — passes one
// chokepoint, and resolve alone decides where it goes: to a ring owner's
// router, to a transplanted process's newest incarnation, or where its
// sender addressed it. A message resolve re-addresses goes out as a copy.
// The sender's pointer, which Ctx.Send holds in its journal, keeps what
// the body performed (DESIGN.md §4, message ownership). A message that
// cannot go anywhere yet waits on one park queue, holding the original,
// and every flush resolves it again the same way.

// outbound is the engine's transport chokepoint. With no ring and no
// transplant mapping, a send costs one nil check and one atomic load, and
// m goes out as it is.
type outbound struct {
	transport.Transport
	eng *Engine
}

// Send implements transport.Transport.
func (t *outbound) Send(m *msg.Message) { t.eng.forward(m, false) }

// forward sends what resolve makes of m, or parks m.
func (e *Engine) forward(m *msg.Message, parked bool) {
	if out := e.resolve(m, parked); out != nil {
		e.net.Send(out)
	} else {
		e.park(m)
	}
}

// resolve returns the message to send for m, or nil to park it. parked
// says m's current address is known not to work: m is on the park queue
// or was handed back.
//
// With a ring, an adjudication goes to the ring owner of its AID,
// stamped with the view epoch. A fresh send is routed only when
// addressed to the assumption itself; a parked one (a NACKed or
// handed-back copy, addressed to a stale router) is looked up by AID the
// same way. It resolves to nil while no owner is known. Everything else
// follows the transplant map from m.To to the newest incarnation; an
// unmapped message goes as it is, unless parked, when it waits for a
// mapping.
//
// A new address is always set on a copy: m itself is never written.
func (e *Engine) resolve(m *msg.Message, parked bool) *msg.Message {
	if rt := e.router; rt.routes(m) && (parked || m.To == m.AID.PID()) {
		owner, epoch, ok := rt.ring.Owner(m.AID)
		if !ok {
			return nil
		}
		if m.Kind == msg.KindGuess && !parked {
			// The lease clock starts under this view epoch; orphan
			// detection (DenyOwned) compares against it.
			rt.mu.Lock()
			if _, seen := rt.grantEpoch[m.AID]; !seen {
				rt.grantEpoch[m.AID] = epoch
			}
			rt.mu.Unlock()
		}
		return readdress(m, rt.ring.RouterPID(owner), epoch)
	}
	if e.xlateOn.Load() {
		if to, ok := e.Adopter(m.To); ok {
			return readdress(m, to, m.Epoch)
		}
	}
	if parked {
		return nil
	}
	return m
}

// readdress returns a shallow copy of m bound for to under view epoch.
func readdress(m *msg.Message, to ids.PID, epoch uint64) *msg.Message {
	c := *m
	c.To, c.Epoch = to, epoch
	return &c
}

// maxParked bounds the parked messages that wait for a transplant
// mapping; beyond it the oldest of them is dropped (counted as a trace
// event), the same fail-fast posture as the transport's queue limits.
// Routed adjudications neither count against it nor are ever dropped:
// losing one would leave its assumption undecided.
const maxParked = 1 << 14

// park queues the original m until a flush resolves it.
func (e *Engine) park(m *msg.Message) {
	unmapped := func(m *msg.Message) bool { return !e.router.routes(m) }
	e.xmu.Lock()
	defer e.xmu.Unlock()
	if unmapped(m) && len(e.parked) >= maxParked && e.countLocked(unmapped) >= maxParked {
		i := slices.IndexFunc(e.parked, unmapped)
		e.tracer.Emit(trace.Event{Kind: trace.Transport, Detail: fmt.Sprintf(
			"parked-frame cap, dropping %s to %s", e.parked[i].Kind, e.parked[i].To)})
		e.parked = slices.Delete(e.parked, i, i+1)
	}
	e.parked = append(e.parked, m)
}

// countLocked counts the parked messages that match. Called with xmu
// held.
func (e *Engine) countLocked(match func(*msg.Message) bool) int {
	n := 0
	for _, m := range e.parked {
		if match(m) {
			n++
		}
	}
	return n
}

// Parked reports how many messages wait on the park queue.
func (e *Engine) Parked() int {
	e.xmu.RLock()
	defer e.xmu.RUnlock()
	return len(e.parked)
}

// Requeue takes back a message that did not reach a destination: the
// wire's dead-frame hand-back (wire.HealthConfig.OnDeadFrame), a NACKed
// adjudication, a dead member's unconsumed frame. A Batch hands back each
// message it carries. A routed adjudication parks for the next flush,
// which looks its owner up afresh: resolving it now could name the dead
// owner again. Anything else goes to its destination's newest
// incarnation if one is mapped, and parks until one is otherwise. If the
// dead owner had applied an adjudication before dying, the adopted
// machine absorbs the replay idempotently.
func (e *Engine) Requeue(m *msg.Message) {
	switch {
	case m == nil:
	case m.Kind == msg.KindBatch:
		inner, _ := m.Payload.([]*msg.Message)
		for _, im := range inner {
			e.Requeue(im)
		}
	case e.router.routes(m):
		e.park(m)
	default:
		e.forward(m, true)
	}
}

// flush resolves every parked message again. It runs on the retry tick
// (with a ring), on OwnershipChanged and on InstallTransplantMap. Routed
// adjudications bound for one owner go out as one Batch frame per flush,
// in park order, so a NACK storm after a view change costs one frame per
// (owner, flush); a singleton goes plain. What still does not resolve is
// re-parked ahead of anything parked meanwhile, so repeated re-parks
// never reorder it.
func (e *Engine) flush() {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.xmu.Lock()
	pending := e.parked
	e.parked = nil
	e.xmu.Unlock()
	rt := e.router
	var keep []*msg.Message
	groups := make(map[ids.PID][]*msg.Message)
	var owners []ids.PID // insertion order: deterministic frame emission
	for _, m := range pending {
		switch out := e.resolve(m, true); {
		case out == nil:
			keep = append(keep, m)
		case rt.routes(m):
			if len(groups[out.To]) == 0 {
				owners = append(owners, out.To)
			}
			groups[out.To] = append(groups[out.To], out)
		default:
			e.net.Send(out)
		}
	}
	e.xmu.Lock()
	e.parked = append(keep, e.parked...)
	e.xmu.Unlock()
	for _, to := range owners {
		grp := groups[to]
		rt.mu.Lock()
		rt.stats.retries += uint64(len(grp))
		if len(grp) > 1 {
			rt.stats.batched += uint64(len(grp))
		}
		rt.mu.Unlock()
		if len(grp) == 1 {
			e.net.Send(grp[0])
		} else {
			e.net.Send(msg.Batch(rt.ring.RouterPID(rt.self), to, grp[0].Epoch, grp))
		}
	}
}
