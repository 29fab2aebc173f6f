package durable

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

// Store is the durable state of one hoped node. It satisfies both
// wire.DurableHooks and core.Persister over a single WAL, so transport
// and engine records interleave in one totally ordered stream.
type Store struct {
	log    *wal.Log
	policy wal.Policy
	tracer trace.Tracer

	mu  sync.Mutex // serializes encode-scratch reuse and the shadow fold; leaf lock below wal's
	buf []byte

	// shadow is a live fold of every appended record by the same code
	// recovery runs; checkpoints are emitted from it (checkpoint.go). nil
	// when checkpointing is disabled — by option (ckptEvery == 0), or
	// because a fold failed. Guarded by mu.
	shadow    *recoverState
	ckptEvery int
	sinceCkpt int
	// lastCkptLen is the record count of the newest bracket. The cadence
	// also waits for sinceCkpt to reach it, so checkpoint overhead is
	// amortized to at most ~2× the log volume no matter how large the
	// state grows — without this, a state bigger than CheckpointEvery
	// makes every few appends re-encode everything, and under load that
	// feeds back (slow appends → deeper backlogs → bigger state → slower
	// appends) into congestion collapse.
	lastCkptLen int

	ckpts    atomic.Uint64
	lastCkpt atomic.Uint64

	encodeErrs atomic.Uint64
	poisoned   sync.Map // ids.PID → struct{}: pids whose persistence failed
}

// Options configures OpenOptions.
type Options struct {
	// Dir is the WAL directory.
	Dir string
	// NodeID is this node's wire ID (it distinguishes local from remote
	// PIDs during send/frame pairing).
	NodeID int
	// Policy is the WAL fsync policy.
	Policy wal.Policy
	// SegmentBytes overrides the WAL segment size (0 = wal default).
	SegmentBytes int64
	// CheckpointEvery writes a durable checkpoint — and prunes the WAL
	// behind it — every N appended records, bounding restart replay to
	// checkpoint + tail. 0 disables checkpointing (restart replays the
	// full history).
	CheckpointEvery int
	// Tracer may be nil.
	Tracer trace.Tracer
}

// Open opens (creating if necessary) the node's WAL under dir, replays it,
// and returns the store ready for appends plus everything the runtime
// needs to resume: wire state, engine state, and pending redeliveries.
// Checkpointing is disabled; use OpenOptions to enable it.
func Open(dir string, nodeID int, policy wal.Policy, tracer trace.Tracer) (*Store, *Recovered, error) {
	return OpenOptions(Options{Dir: dir, NodeID: nodeID, Policy: policy, Tracer: tracer})
}

// OpenOptions is Open with the full option set.
func OpenOptions(o Options) (*Store, *Recovered, error) {
	if o.Tracer == nil {
		o.Tracer = trace.Nop
	}
	rs := newRecoverState(o.NodeID)
	// The shadow is folded separately from rs during the scan: finish()
	// hands rs's maps and slices (watermarks, frame queues, intervals) to
	// the transport and the engine, which mutate them live; the shadow
	// must never alias state it will later re-emit. Folding twice is
	// cheap — neither fold decodes a payload; only finish() does.
	var shadow *recoverState
	onRecord := rs.apply
	if o.CheckpointEvery > 0 {
		shadow = newRecoverState(o.NodeID)
		onRecord = func(lsn uint64, payload []byte) error {
			if err := rs.apply(lsn, payload); err != nil {
				return err
			}
			return shadow.apply(lsn, payload)
		}
	}
	log, err := wal.Open(wal.Options{
		Dir:          o.Dir,
		Policy:       o.Policy,
		SegmentBytes: o.SegmentBytes,
		OnRecord:     onRecord,
	})
	if err != nil {
		return nil, nil, err
	}
	rec, err := rs.finish()
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	m := log.Metrics()
	rec.Records = m.RecoveredRecords
	rec.Truncations = m.TornTruncations
	rec.Duration = m.RecoveryTime
	if !rec.Checkpointed {
		rec.FromLSN = m.RecoveredFrom
	}
	s := &Store{log: log, policy: o.Policy, tracer: o.Tracer,
		shadow: shadow, ckptEvery: o.CheckpointEvery}
	if shadow != nil {
		shadow.ckpt = nil // torn bracket, if any, is void (see below)
		s.sinceCkpt = int(shadow.tailRecords)
		if rec.Checkpointed {
			// The adopted bracket's length re-seeds the amortized cadence.
			s.lastCkptLen = int(rec.Records - rec.TailRecords)
		}
	}
	if rs.tornBracket {
		// The log ends inside an unclosed checkpoint bracket. Void it now,
		// before any other append: otherwise the next recovery would fold
		// the records that follow into a bracket it is going to discard.
		if err := s.appendTagged(recCkptAbort, func(b []byte) []byte { return b[:1] }); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("durable: abort torn checkpoint: %w", err)
		}
		if err := log.Sync(); err != nil {
			log.Close()
			return nil, nil, err
		}
	}
	return s, rec, nil
}

// Close flushes and closes the WAL.
func (s *Store) Close() error { return s.log.Close() }

// Log exposes the underlying WAL (metrics, tests).
func (s *Store) Log() *wal.Log { return s.log }

// EncodeErrors reports how many records failed to encode (and were
// therefore lost; the affected process is poisoned out of recovery).
func (s *Store) EncodeErrors() uint64 { return s.encodeErrs.Load() }

// append encodes one record with build and appends it to the WAL. The
// scratch buffer is reused across calls; build must fully overwrite it.
// The buffered write (and the shadow fold) happen under s.mu, but the
// SyncAlways durability wait happens after release, so concurrent callers
// batch into shared fsyncs instead of serializing through them.
func (s *Store) append(build func(b []byte) ([]byte, error)) error {
	s.mu.Lock()
	b, err := build(append(s.buf[:0], 0)) // placeholder for the type tag set by build
	var lsn uint64
	wait := false
	if err == nil {
		s.buf = b
		lsn, err = s.log.AppendNoSync(b)
		if err == nil {
			wait = s.policy == wal.SyncAlways
			if s.shadow != nil {
				s.foldShadowLocked(lsn, b)
			}
		}
	} else if b != nil {
		s.buf = b
	}
	s.mu.Unlock()
	if err == nil && wait {
		err = s.log.WaitDurable(lsn)
	}
	return err
}

// foldShadowLocked feeds one appended record to the shadow recover-state
// and writes a checkpoint when the cadence comes due. Caller holds s.mu.
//
// The fold reads record headers only, so a record whose payload would not
// decode (a type the reader has not registered, codec drift) does not
// fail here: its bytes are retained and a checkpoint re-emits them
// verbatim — exactly what a full replay of the log would have seen — and
// the decode error surfaces where it always did, from the OpenOptions or
// ReadExtract that has to materialise the value.
func (s *Store) foldShadowLocked(lsn uint64, payload []byte) {
	if err := s.shadow.apply(lsn, payload); err != nil {
		// What is left is a structurally malformed record, which only a
		// bug in this package's own encoders can produce. The shadow has
		// then diverged from what recovery would compute; emitting a
		// checkpoint from it could corrupt recovery. Disable checkpointing
		// for the rest of this run — full replay stays correct — and say
		// so in Stats().
		s.shadow = nil
		s.tracer.Emit(trace.Event{Kind: trace.Transport,
			Detail: fmt.Sprintf("durable: shadow fold failed, checkpointing disabled: %v", err)})
		return
	}
	s.sinceCkpt++
	if s.sinceCkpt >= s.ckptEvery && s.sinceCkpt >= s.lastCkptLen {
		if err := s.checkpointLocked(); err != nil {
			s.tracer.Emit(trace.Event{Kind: trace.Transport,
				Detail: fmt.Sprintf("durable: %v", err)})
		}
	}
}

// appendTagged is append for records whose encoding cannot fail.
func (s *Store) appendTagged(tag byte, build func(b []byte) []byte) error {
	return s.append(func(b []byte) ([]byte, error) {
		b[0] = tag
		return build(b), nil
	})
}

// fail traces and counts a persistence failure.
func (s *Store) fail(what string, err error) {
	s.encodeErrs.Add(1)
	s.tracer.Emit(trace.Event{Kind: trace.Transport,
		Detail: fmt.Sprintf("durable: %s failed: %v", what, err)})
}

// poison drops pid from any future recovery: its durable state is no
// longer complete, so restoring it would be worse than restarting fresh.
func (s *Store) poison(pid ids.PID, reason string) {
	if _, dup := s.poisoned.LoadOrStore(pid, struct{}{}); dup {
		return
	}
	s.encodeErrs.Add(1)
	s.tracer.Emit(trace.Event{Kind: trace.Transport,
		Detail: fmt.Sprintf("durable: %s poisoned, will restart fresh after a crash: %s", pid, reason)})
	if err := s.appendTagged(recPoison, func(b []byte) []byte {
		b = appendUv(b, uint64(pid))
		return append(b, reason...)
	}); err != nil {
		s.fail("poison record", err)
	}
}

// ---------------------------------------------------------------------------
// wire.DurableHooks

// FrameQueued implements wire.DurableHooks.
func (s *Store) FrameQueued(peer int, seq uint64, frame []byte) {
	err := s.appendTagged(recPeerSend, func(b []byte) []byte {
		b = appendUv(b, uint64(peer))
		b = appendUv(b, seq)
		return append(b, frame...)
	})
	if err != nil {
		s.fail("FrameQueued", err)
	}
}

// AckAdvanced implements wire.DurableHooks.
func (s *Store) AckAdvanced(peer int, acked uint64) {
	err := s.appendTagged(recPeerAck, func(b []byte) []byte {
		b = appendUv(b, uint64(peer))
		return appendUv(b, acked)
	})
	if err != nil {
		s.fail("AckAdvanced", err)
	}
}

// Delivered implements wire.DurableHooks. Unlike the other hooks its
// error propagates: the transport refuses the frame, so the sender keeps
// it queued and redelivers once the log accepts writes again.
func (s *Store) Delivered(from int, seq uint64, frame []byte) error {
	return s.appendTagged(recDelivered, func(b []byte) []byte {
		b = appendUv(b, uint64(from))
		b = appendUv(b, seq)
		return append(b, frame...)
	})
}

// Consumed implements wire.DurableHooks (the from/seq form used by the
// transport for dead letters and undecodable frames).
func (s *Store) Consumed(from int, seq uint64) {
	err := s.appendTagged(recConsumed, func(b []byte) []byte {
		b = appendUv(b, uint64(from))
		return appendUv(b, seq)
	})
	if err != nil {
		s.fail("Consumed", err)
	}
}

// SyncForWrite implements wire.DurableHooks: barrier before queued frames
// reach a socket (their sequence numbers become unforgettable).
func (s *Store) SyncForWrite() error { return s.barrier() }

// SyncForAck implements wire.DurableHooks: barrier before an ack frame is
// written (the peer may then forget everything at or below it).
func (s *Store) SyncForAck() error { return s.barrier() }

// barrier forces appended records to stable storage. Under SyncNone the
// barrier is a no-op: the node trades crash safety for speed, explicitly.
func (s *Store) barrier() error {
	if s.policy == wal.SyncNone {
		return nil
	}
	return s.log.Sync()
}

// Stats implements wire.DurableHooks.
func (s *Store) Stats() wire.DurableStats {
	m := s.log.Metrics()
	s.mu.Lock()
	lost := s.shadow == nil && s.ckptEvery > 0
	s.mu.Unlock()
	return wire.DurableStats{
		Appends:          m.Appends,
		Syncs:            m.Syncs,
		TornTruncations:  m.TornTruncations,
		RecoveredRecords: m.RecoveredRecords,
		RecoveryTime:     m.RecoveryTime,
		CheckpointsLost:  lost,
	}
}

// ---------------------------------------------------------------------------
// core.Persister

// JournalAppend implements core.Persister.
func (s *Store) JournalAppend(pid ids.PID, e *journal.Entry) {
	err := s.append(func(b []byte) ([]byte, error) {
		b[0] = recJournal
		b = appendUv(b, uint64(pid))
		return appendEntry(b, e)
	})
	if err != nil {
		s.poison(pid, err.Error())
	}
}

// IntervalOpen implements core.Persister.
func (s *Store) IntervalOpen(pid ids.PID, rec *interval.Record) {
	s.intervalRecord(recIntervalOpen, pid, rec)
}

// IntervalState implements core.Persister.
func (s *Store) IntervalState(pid ids.PID, rec *interval.Record) {
	s.intervalRecord(recIntervalState, pid, rec)
}

func (s *Store) intervalRecord(tag byte, pid ids.PID, rec *interval.Record) {
	err := s.appendTagged(tag, func(b []byte) []byte {
		b = appendUv(b, uint64(pid))
		return appendInterval(b, flatten(rec))
	})
	if err != nil {
		s.poison(pid, err.Error())
	}
}

// flatten snapshots a live interval record into encodable form. Caller
// holds the process lock, so the sets are stable for the duration.
func flatten(rec *interval.Record) core.RestoredInterval {
	return core.RestoredInterval{
		ID:           rec.ID,
		Kind:         rec.Kind,
		JournalIndex: rec.JournalIndex,
		GuessAID:     rec.GuessAID,
		Definite:     rec.Definite,
		IDO:          rec.IDO.Slice(),
		UDO:          rec.UDO.Slice(),
		Cut:          rec.Cut.Slice(),
		IHA:          rec.IHA.Slice(),
		IHD:          rec.IHD.Slice(),
	}
}

// IntervalFinalize implements core.Persister.
func (s *Store) IntervalFinalize(pid ids.PID, iid ids.IntervalID) {
	s.iidRecord(recFinalize, pid, iid, "IntervalFinalize")
}

// Rollback implements core.Persister.
func (s *Store) Rollback(pid ids.PID, iid ids.IntervalID) {
	s.iidRecord(recRollback, pid, iid, "Rollback")
}

func (s *Store) iidRecord(tag byte, pid ids.PID, iid ids.IntervalID, what string) {
	err := s.appendTagged(tag, func(b []byte) []byte {
		b = appendUv(b, uint64(pid))
		return appendIID(b, iid)
	})
	if err != nil {
		s.poison(pid, what+": "+err.Error())
	}
}

// DeadAID implements core.Persister.
func (s *Store) DeadAID(pid ids.PID, a ids.AID) {
	err := s.appendTagged(recDeadAID, func(b []byte) []byte {
		b = appendUv(b, uint64(pid))
		return appendUv(b, uint64(a))
	})
	if err != nil {
		s.poison(pid, "DeadAID: "+err.Error())
	}
}

// AutoDenied implements core.Persister: a liveness auto-denial. It is
// engine-level — there is no owning process to poison, so an append
// failure surfaces as a store failure instead.
func (s *Store) AutoDenied(a ids.AID) {
	err := s.appendTagged(recAutoDeny, func(b []byte) []byte {
		return appendUv(b, uint64(a))
	})
	if err != nil {
		s.fail("AutoDenied", err)
	}
}

// AIDExport records a hosted AID machine snapshot (ownership routing,
// DESIGN.md §13): the routed engine calls it after every applied
// adjudication with the machine's current export blob, and with an
// empty blob as a tombstone when the machine is shipped to a new owner.
// Recovery keeps the last record per AID, so a dead owner's successor
// can adopt its shard by replaying this node's WAL (ReadExtract).
// Engine-level, like AutoDenied.
func (s *Store) AIDExport(a ids.AID, blob []byte) {
	err := s.appendTagged(recAIDExport, func(b []byte) []byte {
		b = appendUv(b, uint64(a))
		b = appendUv(b, uint64(len(blob)))
		return append(b, blob...)
	})
	if err != nil {
		s.fail("AIDExport", err)
	}
}

// ProcExport records one process's full flattened snapshot as a
// recProcIndex record (core.ProcExporter). A transplant adopter writes
// one under the reborn PID so its own restart can rebuild the adopted
// process from its own WAL; nothing else writes it. The error
// propagates: a transplant whose hand-off snapshot cannot be made
// durable must not proceed.
func (s *Store) ProcExport(pid ids.PID, snap *core.Restored) error {
	return s.append(func(b []byte) ([]byte, error) {
		b[0] = recProcIndex
		return appendProcIndex(b, pid, snap)
	})
}

// TransplantRecorded commits a process adoption hand-off: newPid is the
// reborn incarnation of the dead node from's oldPid (core's transplant
// layer, DESIGN.md §13). It is written after the recProcIndex snapshot
// under newPid and synced with it before it returns, before the reborn
// process spawns or is announced, so a crashed transplant is
// recoverable: the restart re-announces the mapping and respawns the
// incarnation from the snapshot, which precedes the record in the WAL.
// Engine-level, like AIDExport.
func (s *Store) TransplantRecorded(from int, oldPid, newPid ids.PID) error {
	err := s.appendTagged(recTransplant, func(b []byte) []byte {
		b = appendUv(b, uint64(from))
		b = appendUv(b, uint64(oldPid))
		return appendUv(b, uint64(newPid))
	})
	if err != nil {
		return err
	}
	return s.barrier()
}

// ViewChanged records a published membership view: the epoch and the
// live member set. On recovery the highest epoch seeds the cluster
// manager's epoch floor, so a restarted node can never gossip a view
// staler than one it already published — the durable half of the
// anti-resurrection argument. Engine-level, like AutoDenied.
func (s *Store) ViewChanged(epoch uint64, live []int) {
	err := s.appendTagged(recViewEpoch, func(b []byte) []byte {
		b = appendUv(b, epoch)
		b = appendUv(b, uint64(len(live)))
		for _, id := range live {
			b = appendUv(b, uint64(id))
		}
		return b
	})
	if err != nil {
		s.fail("ViewChanged", err)
	}
}

// WatermarkAdvanced records an agreed stability frontier: the cluster
// view epoch it was decided under and each member's covered interval
// epoch. On recovery the per-node maxima seed the restarted node's
// stability tracker, so an output the watermark had already released
// can never be re-gated (and an uncovered one never mistaken for
// covered). Engine-level, like ViewChanged.
func (s *Store) WatermarkAdvanced(viewEpoch uint64, frontier map[int]uint32) {
	nodes := make([]int, 0, len(frontier))
	for n := range frontier {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	err := s.appendTagged(recWatermark, func(b []byte) []byte {
		b = appendUv(b, viewEpoch)
		b = appendUv(b, uint64(len(nodes)))
		for _, n := range nodes {
			b = appendUv(b, uint64(n))
			b = appendUv(b, uint64(frontier[n]))
		}
		return b
	})
	if err != nil {
		s.fail("WatermarkAdvanced", err)
	}
}

// Compact implements core.Persister. The snapshot is gob-encoded before
// anything is written; an unencodable snapshot aborts the compaction
// (the engine keeps its journal) instead of corrupting recovery.
func (s *Store) Compact(pid ids.PID, iid ids.IntervalID, base any) error {
	return s.append(func(b []byte) ([]byte, error) {
		b[0] = recCompact
		b = appendUv(b, uint64(pid))
		b = appendIID(b, iid)
		return appendAny(b, base)
	})
}

// MessageConsumed implements core.Persister: retire a remote-origin
// message the engine discarded without entering any journal.
func (s *Store) MessageConsumed(m *msg.Message) {
	s.Consumed(m.SrcNode, m.SrcSeq)
}
