package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
)

// Process transplant (DESIGN.md §13): when a member dies for good, each
// survivor adopts its ring slice of the corpse's user processes by
// extracting their replay state from the dead node's WAL
// (durable.ReadExtract), deterministically replaying it into a fresh
// process under the survivor's PID namespace, and resuming from the
// replay frontier.
//
// The adopted state is deliberately NOT rewritten: the reborn process
// keeps its old interval IDs (Proc = corpse PID) and its journal keeps
// old From/To/Child PIDs verbatim, so inbound control messages and
// ring-owner machine state — both of which reference the old identity —
// match without a translation table threaded through the engine.
// Translation happens only at the messaging layer: the engine's
// addressing step (address.go) sends a copy of anything addressed to a
// mapped corpse PID on to its newest incarnation, and the wire layer
// hands frames bound for a dead node back to the engine (Requeue) to be
// forwarded, or parked until the adopter's announcement arrives.
// Intervals opened after the transplant use the reborn PID, so the two
// incarnations' IDs can never collide.
//
// At-most-one-incarnation fence: the process ring assigns each corpse
// PID to exactly one survivor per agreed view, and InstallTransplantMap
// is first-mapping-wins — a second adoption of the same PID (a view
// disagreement, a replayed announcement) is refused before it spawns, so
// no two incarnations of one client process can both externalize.

// TransplantPair maps a dead incarnation to its reborn one.
type TransplantPair struct {
	Old ids.PID // PID on the dead node
	New ids.PID // adopted incarnation in the survivor's namespace
}

// Adopter returns the newest incarnation of a transplanted process,
// chasing chains (the adopter itself died and its adoption was
// re-adopted); ok is false for a PID with no installed mapping. Death
// handlers use it to skip auto-denying assumptions whose minting process
// was adopted rather than lost, and to judge a dead minter by its
// adopter's health.
func (e *Engine) Adopter(pid ids.PID) (ids.PID, bool) {
	e.xmu.RLock()
	defer e.xmu.RUnlock()
	to, ok := e.transplants[pid]
	if !ok {
		return ids.NilPID, false
	}
	for range e.transplants { // bounded by map size; guards a mapping cycle
		next, more := e.transplants[to]
		if !more {
			break
		}
		to = next
	}
	return to, true
}

// InstallTransplantMap records old→new incarnation mappings, learned
// either from a local adoption or from a peer's announcement frame.
// First mapping wins: a pair whose Old is already mapped is ignored,
// which (with disjoint ring slices under agreed views) fences duplicate
// deliveries of an announcement and conflicting adoptions — at most one
// transplant of a process ever takes effect here. A new mapping flushes
// the park queue, so frames parked for a now-mapped corpse PID go on to
// the adopter. Returns how many pairs were newly installed.
func (e *Engine) InstallTransplantMap(pairs []TransplantPair) int {
	e.xmu.Lock()
	installed := 0
	for _, pr := range pairs {
		if pr.Old == pr.New || pr.Old == ids.NilPID || pr.New == ids.NilPID {
			continue
		}
		if _, dup := e.transplants[pr.Old]; dup {
			continue // first mapping wins
		}
		e.transplants[pr.Old] = pr.New
		installed++
	}
	e.xmu.Unlock()
	if installed > 0 {
		e.xlateOn.Store(true)
		e.flush()
	}
	return installed
}

// AdoptProcesses transplants this node's ring slice of a dead node's
// user processes. procs is the corpse extraction (durable.ReadExtract
// reshaped to core's Restored); own selects the slice (nil adopts all);
// body is the deterministic body to replay — the same function the
// corpse ran, by the determinism contract. For each adopted process the
// hand-off is committed first: an export of the full snapshot under the
// reborn PID (the one place the engine writes a ProcExporter record),
// then the TransplantRecorder record, which syncs both. Only then is the
// mapping installed and the incarnation spawned, so a crash
// mid-transplant recovers the adoption instead of losing the process
// twice, and a restart never respawns a mapping without its snapshot.
//
// Returns the installed pairs; the caller announces them to peers
// (EncodeTransplantAnnouncement → wire transplant frames) so everyone
// can forward traffic addressed to the dead incarnations.
func (e *Engine) AdoptProcesses(from int, procs map[ids.PID]*Restored, own func(ids.PID) bool, body Body) ([]TransplantPair, error) {
	olds := make([]ids.PID, 0, len(procs))
	for pid := range procs {
		olds = append(olds, pid)
	}
	sort.Slice(olds, func(i, j int) bool { return olds[i] < olds[j] })

	var pairs []TransplantPair
	for _, old := range olds {
		r := procs[old]
		if r == nil || r.Terminated || len(r.Intervals) == 0 {
			continue
		}
		if own != nil && !own(old) {
			continue
		}
		if _, dup := e.Adopter(old); dup {
			// The fence: someone (possibly us, recovering) already adopted
			// this process; a second incarnation must not spawn.
			continue
		}
		newPid := e.machine.AllocPID()
		r.Transplant = true
		// The journal's WAL identities name the corpse's inbox, whose
		// (node, seq) space collides with ours: cleared, as for
		// ReinjectCorpseTraffic, so no adopted receive — re-folded from a
		// checkpoint, or re-consumed after rollback — retires our frames.
		// These are the extraction's decoded copies, not yet in any
		// journal of ours (DESIGN.md §4, message ownership).
		for _, en := range r.Entries {
			if en.Msg != nil {
				en.Msg.SrcNode, en.Msg.SrcSeq = 0, 0
			}
		}
		// Snapshot first, mapping last: no WAL cut leaves a mapping
		// without its snapshot, which a restart would respawn empty.
		if px, ok := e.persist.(ProcExporter); ok {
			if err := px.ProcExport(newPid, r); err != nil {
				return pairs, fmt.Errorf("core: export transplant of %s: %w", old, err)
			}
		}
		if tr, ok := e.persist.(TransplantRecorder); ok {
			if err := tr.TransplantRecorded(from, old, newPid); err != nil {
				return pairs, fmt.Errorf("core: record transplant of %s: %w", old, err)
			}
		}
		// Epochs issued here must clear everything the corpse ever issued
		// for this process, so stale corpse-era control messages stay
		// distinguishable from the reborn incarnation's intervals.
		maxE := r.MaxEpoch
		for _, ri := range r.Intervals {
			if ri.ID.Epoch > maxE {
				maxE = ri.ID.Epoch
			}
		}
		e.epochs.Skip(maxE)
		e.InstallTransplantMap([]TransplantPair{{Old: old, New: newPid}})
		if _, err := e.Transplant(newPid, body, r); err != nil {
			return pairs, fmt.Errorf("core: respawn transplant %s as %s: %w", old, newPid, err)
		}
		pairs = append(pairs, TransplantPair{Old: old, New: newPid})
		e.tracer.Emit(trace.Event{Kind: trace.Restart, PID: newPid,
			Detail: fmt.Sprintf("transplanted %s off dead node %d", old, from)})
	}
	return pairs, nil
}

// Transplant spawns body at a caller-chosen PID. With r non-nil (a fresh
// adoption) the process restores from r; with r nil the PID must already
// be mapped in the engine's Config.Restore — the path a restarted
// adopter takes when respawning transplants recorded in its own WAL
// (durable.Recovered.Transplants).
func (e *Engine) Transplant(pid ids.PID, body Body, r *Restored) (*Process, error) {
	e.mu.Lock()
	if e.closing {
		e.mu.Unlock()
		return nil, ErrShutdown
	}
	if r != nil {
		if e.restore == nil {
			e.restore = make(map[ids.PID]*Restored)
		}
		e.restore[pid] = r
	}
	e.mu.Unlock()

	p := newProcess(e, body, nil)
	proc, err := e.machine.SpawnAt(pid, p.dispatch)
	if err != nil {
		return nil, fmt.Errorf("spawn transplant: %w", err)
	}
	p.bind(proc)
	e.start(p)
	return p, nil
}

// ReinjectCorpseTraffic re-sends traffic extracted from the corpse's
// WAL: out is its swallowed output (the pending resend plus outbound
// frames never acknowledged — re-sent at-least-once; receivers absorb
// the duplicates exactly as they absorb rollback-re-executed sends), and
// orphans are delivered-but-unconsumed inbox frames addressed to corpse
// processes, re-injected only for processes this node adopted. WAL
// identities are cleared first so the adopter's durable layer never
// retires a foreign (node, seq) pair that collides with its own inbox
// accounting; the messages are the extraction's decoded copies, written
// before their first send here. Returns how many messages were re-sent.
func (e *Engine) ReinjectCorpseTraffic(out, orphans []*msg.Message) int {
	n := 0
	for _, m := range out {
		if m == nil {
			continue
		}
		m.SrcNode, m.SrcSeq = 0, 0
		e.machine.Net().Send(m)
		n++
	}
	for _, m := range orphans {
		if m == nil {
			continue
		}
		if _, ok := e.Adopter(m.To); !ok {
			continue
		}
		m.SrcNode, m.SrcSeq = 0, 0
		e.machine.Net().Send(m)
		n++
	}
	return n
}

// EncodeTransplantAnnouncement renders pairs for the wire's transplant
// side-channel: a count uvarint, then (old, new) uvarint pairs.
func EncodeTransplantAnnouncement(pairs []TransplantPair) []byte {
	b := binary.AppendUvarint(nil, uint64(len(pairs)))
	for _, p := range pairs {
		b = binary.AppendUvarint(b, uint64(p.Old))
		b = binary.AppendUvarint(b, uint64(p.New))
	}
	return b
}

// DecodeTransplantAnnouncement parses an announcement payload.
func DecodeTransplantAnnouncement(b []byte) ([]TransplantPair, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("core: transplant announcement: bad count")
	}
	b = b[n:]
	if count > uint64(len(b)) { // every pair needs ≥2 bytes
		return nil, fmt.Errorf("core: transplant announcement: count %d exceeds payload", count)
	}
	pairs := make([]TransplantPair, 0, count)
	for i := uint64(0); i < count; i++ {
		old, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("core: transplant announcement: bad old pid")
		}
		b = b[n:]
		reborn, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("core: transplant announcement: bad new pid")
		}
		b = b[n:]
		pairs = append(pairs, TransplantPair{Old: ids.PID(old), New: ids.PID(reborn)})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("core: transplant announcement: %d trailing bytes", len(b))
	}
	return pairs, nil
}
