package durable

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/trace"
)

// A checkpoint bounds recovery: instead of refolding the whole WAL from
// LSN 0, a restart folds the newest checkpoint bracket plus the records
// after it. The bracket is written from the store's shadow recover-state
// — a live fold of every appended record by the exact code recovery runs
// — as a run of ordinary records between recCkptBegin and recCkptEnd, so
// "replay the snapshot" and "replay the history it replaces" are the same
// operation by construction. The write protocol is:
//
//  1. Under s.mu (no record can interleave): rotate to a fresh segment,
//     so the bracket starts a segment and everything before it is
//     prunable.
//  2. Append Begin, the state records, then End — unsynced; one fsync at
//     the end covers the whole bracket. The records are streamed from
//     the shadow one at a time; frames, journal entries and snapshots go
//     out as the bytes they came in as, so nothing is decoded or
//     re-encoded and the emission cannot fail short of a log error
//     (which voids the half-written bracket with recCkptAbort).
//  3. Release s.mu, then sync. Only now is the checkpoint real: a crash
//     before this leaves a torn bracket that recovery discards (and the
//     next boot voids with recCkptAbort). Appends go on behind End while
//     the log syncs; at the configured cadence a small state checkpoints
//     often, and holding s.mu across the fsync stalled every appender.
//  4. Prune every segment before Begin.
//
// Crash-consistency: the bracket only becomes load-bearing (step 4
// removes the history it replaces) after it is fully durable (step 3),
// and recovery adopts a bracket only on seeing End — so at every crash
// point either the full history or a complete checkpoint (plus the whole
// tail, synced by its own policy barriers) is on disk.

// errCheckpointDisabled is returned by Checkpoint when the store was
// opened with CheckpointEvery == 0 (or the shadow fold failed).
var errCheckpointDisabled = errors.New("durable: checkpointing disabled")

// Checkpoint forces a durable checkpoint now, regardless of the
// CheckpointEvery cadence.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	if s.shadow == nil {
		s.mu.Unlock()
		return errCheckpointDisabled
	}
	begin, err := s.checkpointLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.sealCheckpoint(begin)
}

// Checkpoints reports how many checkpoints this store has written.
func (s *Store) Checkpoints() uint64 { return s.ckpts.Load() }

// LastCheckpointLSN reports the Begin LSN of the newest written
// checkpoint (0 if none this run).
func (s *Store) LastCheckpointLSN() uint64 { return s.lastCkpt.Load() }

// checkpointLocked writes one checkpoint bracket (steps 1 and 2) and
// returns its Begin LSN. Caller holds s.mu, which serializes it against
// every record append, and seals the bracket (sealCheckpoint) once it
// has released s.mu.
func (s *Store) checkpointLocked() (uint64, error) {
	s.sinceCkpt, s.sinceBytes = 0, 0
	// Compact first, then emit everything that is left: the bracket and
	// the shadow cannot disagree about which inbox entries survive, so
	// once the bracket is durable the shadow is exactly the state a
	// recovery adopting it would hold.
	s.shadow.compactInbox()
	if err := s.log.Rotate(); err != nil {
		return 0, fmt.Errorf("durable: checkpoint rotate: %w", err)
	}
	var begin uint64
	n, size := 0, 0
	err := s.shadow.emitCheckpoint(s.ckpts.Load()+1, func(rec []byte) error {
		lsn, err := s.log.AppendNoSync(rec)
		if err != nil {
			return err
		}
		if n == 0 {
			begin = lsn
		}
		n++
		size += len(rec)
		return nil
	})
	if err != nil {
		if n > 0 {
			s.abortBracketLocked()
		}
		return 0, fmt.Errorf("durable: checkpoint record %d: %w", n, err)
	}
	s.ckpts.Add(1)
	s.lastCkptBytes = size // feeds the amortized cadence
	return begin, nil
}

// sealCheckpoint makes the bracket at begin durable and prunes the
// history it replaces (steps 3 and 4), without s.mu. The bracket must be
// durable before it authorizes the prune — even under SyncNone, where
// losing the checkpoint AND the pruned history would exceed the policy's
// bargain. A sync covers every record appended before it, so two
// brackets sealed out of order still prune only behind a durable one.
func (s *Store) sealCheckpoint(begin uint64) error {
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("durable: checkpoint sync: %w", err)
	}
	for {
		cur := s.lastCkpt.Load()
		if cur >= begin || s.lastCkpt.CompareAndSwap(cur, begin) {
			break
		}
	}
	if err := s.log.Prune(begin); err != nil {
		// The checkpoint is valid; stale segments just linger until the
		// next prune succeeds.
		s.tracer.Emit(trace.Event{Kind: trace.Transport,
			Detail: fmt.Sprintf("durable: checkpoint prune: %v", err)})
	}
	return nil
}

// abortBracketLocked voids a half-written bracket so recovery cannot
// mistake later records for its continuation. Best effort: if even this
// append fails the log is latched and refuses everything anyway.
func (s *Store) abortBracketLocked() {
	if _, err := s.log.AppendNoSync([]byte{recCkptAbort}); err == nil {
		s.log.Sync()
	}
}

// compactInbox drops every inbox entry that can never be redelivered:
// consumed, and named by no journalled receive whose rollback could
// release it again. Nothing later in the stream can observe such an
// entry, so dropping it never changes what the fold produces. A reaped
// process's journal is gone from the fold (recReap) — nothing can roll
// it back — so the frames only it named are dropped here too.
func (rs *recoverState) compactInbox() {
	releasable := make(map[inKey]struct{})
	for _, p := range rs.procs {
		for i := range p.entries {
			if key, ok := p.entries[i].recvKey(); ok {
				releasable[key] = struct{}{}
			}
		}
	}
	keep := rs.inbox[:0]
	for _, im := range rs.inbox {
		if _, ok := releasable[im.inKey]; im.consumed && !ok {
			delete(rs.inboxBy, im.inKey)
			continue
		}
		keep = append(keep, im)
	}
	clear(rs.inbox[len(keep):])
	rs.inbox = keep
}

// tombsPerRecord bounds one checkpoint recReap record (≤ 16 B a
// tombstone in practice).
const tombsPerRecord = 1024

// emitCheckpoint flattens rs into a checkpoint bracket, handing each
// record to emit in order: Begin, the state, End. Retained bytes —
// frames, journal entries, compaction bases, pending resends — are
// re-emitted verbatim, so nothing here can fail to encode; the only
// error is emit's first, after which nothing more is emitted. rec is
// reused between calls. The caller compacts the inbox first (compactInbox). Iteration
// over maps is key-sorted purely for deterministic output.
func (rs *recoverState) emitCheckpoint(ordinal uint64, emit func(rec []byte) error) error {
	var b []byte
	var err error
	start := func(tag byte, v uint64) { b = appendUv(append(b[:0], tag), v) }
	put := func() {
		if err == nil {
			err = emit(b)
		}
	}

	start(recCkptBegin, ordinal)
	put()
	if rs.viewEpoch > 0 {
		start(recViewEpoch, rs.viewEpoch)
		b = appendUv(b, 0) // live set is informational; epoch is what must survive
		put()
	}
	if len(rs.frontier) > 0 {
		nodes := make([]int, 0, len(rs.frontier))
		for n := range rs.frontier {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		start(recWatermark, rs.wmView)
		b = appendUv(b, uint64(len(nodes)))
		for _, n := range nodes {
			b = appendUv(b, uint64(n))
			b = appendUv(b, uint64(rs.frontier[n]))
		}
		put()
	}
	for _, a := range rs.deniedSeq {
		start(recAutoDeny, uint64(a))
		put()
	}
	if len(rs.aidExports) > 0 {
		// Hosted AID snapshots (ownership routing): last-wins per AID, so
		// re-emitting the folded map is exact. Tombstoned AIDs are already
		// absent from it.
		exports := make([]ids.AID, 0, len(rs.aidExports))
		for a := range rs.aidExports {
			exports = append(exports, a)
		}
		sort.Slice(exports, func(i, j int) bool { return exports[i] < exports[j] })
		for _, a := range exports {
			blob := rs.aidExports[a]
			start(recAIDExport, uint64(a))
			b = appendUv(b, uint64(len(blob)))
			b = append(b, blob...)
			put()
		}
	}

	if len(rs.transplants) > 0 {
		// Adoption hand-offs: the restart must keep respawning and
		// re-announcing every incarnation this node has ever adopted.
		reborn := make([]ids.PID, 0, len(rs.transplants))
		for pid := range rs.transplants {
			reborn = append(reborn, pid)
		}
		sort.Slice(reborn, func(i, j int) bool { return reborn[i] < reborn[j] })
		for _, pid := range reborn {
			o := rs.transplants[pid]
			start(recTransplant, uint64(o.From))
			b = appendUv(b, uint64(o.OldPID))
			b = appendUv(b, uint64(pid))
			put()
		}
	}

	// Per-peer wire state: watermarks first (frame replay below can only
	// raise lastSeq to the highest unacked frame, not past acked ones),
	// then the unacked frames in order.
	for _, peer := range sortedPeers(rs) {
		p := rs.peers[peer]
		wm, hasWm := rs.watermk[peer]
		var flags byte
		if p != nil {
			flags |= ckptHasPeer
		}
		if hasWm {
			flags |= ckptHasWm
		}
		start(recCkptSeq, uint64(peer))
		b = append(b, flags)
		if p != nil {
			b = appendUv(b, p.lastSeq)
		}
		if hasWm {
			b = appendUv(b, wm)
		}
		put()
		if p != nil {
			for _, f := range p.frames {
				start(recPeerSend, uint64(peer))
				b = appendUv(b, f.Seq)
				b = append(b, f.Frame...)
				put()
			}
		}
	}

	// Inbox, in arrival order, before any journal record (the re-folded
	// journals re-mark their receives consumed). compactInbox has left
	// the unconsumed entries plus the consumed ones some journalled
	// receive could still release by rolling back.
	for _, im := range rs.inbox {
		start(recDelivered, uint64(im.from))
		b = appendUv(b, im.seq)
		b = append(b, im.frame...)
		put()
	}

	// Per-process engine state. The base snapshot goes first (its fold
	// clears the journal), then intervals with their current sets and
	// flags, the journal, learned-dead AIDs, and finally the high-waters
	// and flags no re-emitted record can reproduce.
	var pending []ids.PID
	var pendingMsgs [][]byte
	for _, pid := range slices.Sorted(maps.Keys(rs.procs)) {
		p := rs.procs[pid]
		if p.hasBase {
			start(recCompact, uint64(pid))
			b = appendIID(b, ids.IntervalID{}) // matches no interval: folds to base-only
			b = append(b, p.base...)
			put()
		}
		for _, ri := range p.intervals {
			start(recIntervalOpen, uint64(pid))
			b = appendInterval(b, ri)
			put()
		}
		for i := range p.entries {
			start(recJournal, uint64(pid))
			b = append(b, p.entries[i].enc...)
			put()
		}
		for _, a := range p.deadOrder {
			start(recDeadAID, uint64(pid))
			b = appendUv(b, uint64(a))
			put()
		}
		start(recCkptProc, uint64(pid))
		b = appendUv(b, uint64(p.maxSeq))
		b = appendUv(b, uint64(p.maxEpoch))
		var flags byte
		if p.terminated {
			flags |= ckptTerminated
		}
		b = append(b, flags)
		put()
		if p.poisoned {
			start(recPoison, uint64(pid))
			b = append(b, "carried across checkpoint"...)
			put()
		}
		if p.pendingSend() {
			pending = append(pending, pid)
			pendingMsgs = append(pendingMsgs, p.lastSend.msg)
		}
	}

	// Reaped processes: their tombstones only, packed many to a record.
	for tombs := rs.tombList; len(tombs) > 0; {
		chunk := tombs[:min(len(tombs), tombsPerRecord)]
		tombs = tombs[len(chunk):]
		start(recReap, uint64(len(chunk)))
		var prev ids.PID
		for _, t := range chunk {
			b = appendTomb(b, prev, t.pid, rs.survivors(t), t.maxEpoch)
			prev = t.pid
		}
		put()
	}
	for _, pid := range slices.Sorted(maps.Keys(rs.reapedSends)) {
		pending = append(pending, pid)
		pendingMsgs = append(pendingMsgs, rs.reapedSends[pid].msg)
	}

	// End: the authoritative pending-resend set (see recoverState.adopt).
	start(recCkptEnd, uint64(len(pending)))
	for i, pid := range pending {
		enc := pendingMsgs[i]
		b = appendUv(b, uint64(pid))
		b = appendUv(b, uint64(len(enc)))
		b = append(b, enc...)
	}
	put()
	return err
}

func sortedPeers(rs *recoverState) []int {
	seen := make(map[int]bool, len(rs.peers)+len(rs.watermk))
	var peers []int
	for id := range rs.peers {
		if !seen[id] {
			seen[id] = true
			peers = append(peers, id)
		}
	}
	for id := range rs.watermk {
		if !seen[id] {
			seen[id] = true
			peers = append(peers, id)
		}
	}
	sort.Ints(peers)
	return peers
}
