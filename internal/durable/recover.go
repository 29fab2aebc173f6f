package durable

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

// Recovered is everything Open rebuilt from the WAL. A node boots by
// passing Resume to wire.NewNode, Restore to core.NewEngine, then — after
// the engine has spawned its root processes — re-sending Resend through
// the node and re-injecting Redeliver via Node.Redeliver.
type Recovered struct {
	// Resume is the transport's pre-crash send/receive state.
	Resume *wire.Resume
	// Restore maps each recovered user process to its pre-crash state.
	Restore map[ids.PID]*core.Restored
	// Redeliver holds delivered-but-unconsumed inbound messages in their
	// original arrival order, SrcNode/SrcSeq stamped.
	Redeliver []*msg.Message
	// Resend holds journalled sends whose frames never reached a resend
	// queue (the crash hit between the journal append and the enqueue).
	Resend []*msg.Message
	// Denied lists assumptions the liveness layer auto-denied before the
	// crash; pass it to core.Config.Denied so a restart cannot resurrect
	// an orphaned speculation.
	Denied []ids.AID
	// Skipped counts recovered inbound frames dropped because they no
	// longer decode (codec drift across the restart).
	Skipped int
	// ViewEpoch is the highest membership view epoch this node published
	// before the crash (0 if it never ran clustered); pass it to
	// cluster.Config.EpochFloor so the restarted node re-announces itself
	// above every view it already gossiped.
	ViewEpoch uint64
	// Frontier is the per-node stability frontier from the newest
	// recWatermark records (per-node maxima — the watermark is monotone,
	// so max-merging across records is exact). Seed the restarted node's
	// stability.Tracker with it so outputs the pre-crash watermark had
	// already released are re-emitted promptly instead of waiting on a
	// fresh round. Nil when the node never ran with the watermark on.
	Frontier map[int]uint32
	// FrontierView is the cluster view epoch the newest recovered
	// watermark advance was decided under.
	FrontierView uint64
	// AIDExports maps each AID this node hosted under ownership routing
	// to its newest machine snapshot blob (tombstoned AIDs — shipped
	// away pre-crash — are absent). Pass it to core's InstallExports so
	// a restart resumes adjudicating its shard. Nil when the node never
	// ran routed.
	AIDExports map[ids.AID][]byte
	// Transplants maps each reborn PID this node adopted off a dead
	// node to its origin (recTransplant records). The restart must
	// respawn these incarnations explicitly (core's Engine.Transplant —
	// their PIDs sit above the deterministic root range, so no root
	// spawn ever draws them) and re-announce the old→new mapping. Nil
	// when the node never adopted a process.
	Transplants map[ids.PID]TransplantOrigin

	// Records, Truncations, Duration mirror the WAL scan metrics.
	Records     uint64
	Truncations uint64
	Duration    time.Duration

	// Checkpointed reports whether recovery adopted a durable checkpoint;
	// FromLSN is the LSN replay effectively restarted from (the adopted
	// checkpoint's Begin record, else the first record on disk) and
	// TailRecords counts the records folded after that point — the part of
	// recovery whose cost grows with workload, not with history.
	Checkpointed bool
	FromLSN      uint64
	TailRecords  uint64
}

// Empty reports whether the WAL held no state (first boot).
func (r *Recovered) Empty() bool {
	return len(r.Restore) == 0 && len(r.Redeliver) == 0 && len(r.Resend) == 0 &&
		len(r.Denied) == 0 && r.ViewEpoch == 0 && len(r.Frontier) == 0 &&
		(r.Resume == nil || (len(r.Resume.Peers) == 0 && len(r.Resume.Delivered) == 0))
}

// String summarizes the recovery for the boot log.
func (r *Recovered) String() string {
	frames := 0
	if r.Resume != nil {
		for _, p := range r.Resume.Peers {
			frames += len(p.Frames)
		}
	}
	out := fmt.Sprintf("records=%d procs=%d redeliver=%d resend=%d unacked=%d denied=%d torn=%d in %v",
		r.Records, len(r.Restore), len(r.Redeliver), len(r.Resend), frames,
		len(r.Denied), r.Truncations, r.Duration.Round(time.Microsecond))
	if r.ViewEpoch > 0 {
		out += fmt.Sprintf(" view=e%d", r.ViewEpoch)
	}
	if len(r.Frontier) > 0 {
		out += fmt.Sprintf(" wm=%d", len(r.Frontier))
	}
	out += fmt.Sprintf(" from=%d tail=%d", r.FromLSN, r.TailRecords)
	if r.Checkpointed {
		out += " ckpt"
	}
	return out
}

// TransplantOrigin identifies the pre-death incarnation of an adopted
// process: the node it died on and the PID it had there.
type TransplantOrigin struct {
	From   int
	OldPID ids.PID
}

// inKey identifies one delivered inbound frame.
type inKey struct {
	from int
	seq  uint64
}

// inMsg is one delivered inbound frame awaiting consumption.
type inMsg struct {
	inKey
	frame    []byte
	consumed bool
}

// rPeer accumulates send-side state toward one peer.
type rPeer struct {
	lastSeq uint64
	frames  []wire.ResumeFrame // unacked, ascending by seq
}

// rEntry is one journal entry as the fold holds it: an immutable copy of
// its encoded bytes plus the header fields the fold itself consults. The
// embedded message's payload and the gob note are opened only when the
// entry is materialised for a caller (decodeEntry).
type rEntry struct {
	enc     []byte // appendEntry's layout
	lsn     uint64 // record that carried it, for decode diagnostics
	kind    journal.Kind
	srcNode int    // embedded message's WAL provenance
	srcSeq  uint64 // (0 = none, or a local message)
	msg     []byte // embedded encoded message, aliasing enc; nil when absent
}

// retainEntry parses the header of enc, which must already be the fold's
// own copy. to is the embedded message's destination (NilPID when there
// is none, or its header does not parse — decodeEntry reports that later).
func retainEntry(lsn uint64, enc []byte) (e rEntry, to ids.PID, err error) {
	h, err := (&reader{buf: enc}).entryHeader()
	if err != nil {
		return rEntry{}, ids.NilPID, err
	}
	e = rEntry{enc: enc, lsn: lsn, kind: h.kind, srcNode: h.srcNode, srcSeq: h.srcSeq, msg: h.msg}
	if h.msg != nil {
		if mh, ok := wire.PeekHeader(h.msg); ok {
			to = mh.To
		}
	}
	return e, to, nil
}

// recvKey names the delivered frame this entry consumed, if it is a
// receive of a remote-origin message.
func (e *rEntry) recvKey() (inKey, bool) {
	if e.msg == nil || e.srcSeq == 0 || (e.kind != journal.KindRecv && e.kind != journal.KindTryRecv) {
		return inKey{}, false
	}
	return inKey{from: e.srcNode, seq: e.srcSeq}, true
}

// rProc accumulates one process's engine state.
type rProc struct {
	intervals  []core.RestoredInterval
	entries    []rEntry
	dead       map[ids.AID]struct{}
	deadOrder  []ids.AID
	base       []byte // compaction snapshot in appendAny's layout, when hasBase
	baseLSN    uint64
	hasBase    bool
	maxSeq     uint32
	maxEpoch   uint32
	terminated bool
	poisoned   bool

	// Send/frame pairing: LSN of the last journalled remote send vs. the
	// last KindData frame enqueued by this process. Journal-append happens
	// before enqueue under the process lock, so at most the single last
	// send can be missing its frame after a torn-tail truncation.
	lastSendLSN  uint64
	lastSend     rEntry // meaningful only while lastSendLSN > 0
	lastFrameLSN uint64
}

// pendingSend reports whether the process's last journalled remote send
// still lacks its frame record.
func (p *rProc) pendingSend() bool {
	return p.lastSendLSN > p.lastFrameLSN && !p.terminated
}

// recoverState folds the WAL record stream, in LSN order, into the
// resume state. Every application mirrors the live mutation the record
// describes; see each record tag's comment in records.go.
//
// The fold is byte-retaining: apply parses only the fixed header of a
// record and keeps journal entries, frames and snapshots as immutable
// copies of their encoded bytes. Rollback, send/frame pairing and the
// checkpoint all work on those headers, the checkpoint re-emits the
// bytes verbatim, and values are materialised (payloads decoded) only
// for what survives to the end of the stream — in finish and
// ReadExtract. That is what lets the store run this same fold on
// every record it appends (the shadow) without decoding what it has
// just encoded.
type recoverState struct {
	self    int
	peers   map[int]*rPeer
	watermk map[int]uint64
	inbox   []*inMsg
	inboxBy map[inKey]*inMsg
	procs   map[ids.PID]*rProc

	denied    map[ids.AID]struct{}
	deniedSeq []ids.AID // insertion order, for deterministic restore

	viewEpoch uint64 // highest recViewEpoch seen

	wmView   uint64         // view epoch of the newest recWatermark seen
	frontier map[int]uint32 // per-node maxima across recWatermark records

	aidExports map[ids.AID][]byte // last snapshot per hosted AID (recAIDExport; tombstones deleted)

	transplants map[ids.PID]TransplantOrigin // adopted incarnations by reborn PID (recTransplant)

	// Checkpoint bracket state. While ckpt is non-nil the stream is inside
	// a Begin..End bracket and records fold into the nested state instead;
	// End adopts it wholesale, Abort (or EOF) discards it.
	ckpt         *recoverState
	beginLSN     uint64 // LSN of this state's own recCkptBegin (nested states only)
	adopted      bool   // a checkpoint was adopted
	adoptedBegin uint64 // Begin LSN of the newest adopted checkpoint
	tailRecords  uint64 // records folded outside brackets since the last adoption
	tornBracket  bool   // the stream ended inside an unclosed bracket (set by finish)
}

func newRecoverState(self int) *recoverState {
	return &recoverState{
		self:    self,
		peers:   make(map[int]*rPeer),
		watermk: make(map[int]uint64),
		inboxBy: make(map[inKey]*inMsg),
		procs:   make(map[ids.PID]*rProc),
	}
}

func (rs *recoverState) proc(pid ids.PID) *rProc {
	p := rs.procs[pid]
	if p == nil {
		p = &rProc{dead: make(map[ids.AID]struct{})}
		rs.procs[pid] = p
	}
	return p
}

// apply consumes one WAL record. payload aliases the scanner's read
// buffer: anything retained must be copied.
func (rs *recoverState) apply(lsn uint64, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("durable: empty record")
	}
	switch payload[0] {
	case recCkptBegin:
		// A Begin while already in a bracket can only follow corruption;
		// the newer bracket wins either way.
		c := newRecoverState(rs.self)
		c.beginLSN = lsn
		rs.ckpt = c
		return nil
	case recCkptEnd:
		if rs.ckpt == nil {
			return nil // stray End (its bracket was aborted); ignore
		}
		return rs.adopt(lsn, payload[1:])
	case recCkptAbort:
		rs.ckpt = nil
		return nil
	}
	if rs.ckpt != nil {
		return rs.ckpt.apply(lsn, payload)
	}
	rs.tailRecords++
	r := &reader{buf: payload[1:]}
	switch payload[0] {
	case recPeerSend:
		peer, err := r.uv()
		if err != nil {
			return err
		}
		seq, err := r.uv()
		if err != nil {
			return err
		}
		frame := append([]byte(nil), r.buf...)
		p := rs.peers[int(peer)]
		if p == nil {
			p = &rPeer{}
			rs.peers[int(peer)] = p
		}
		if seq > p.lastSeq {
			p.lastSeq = seq
		}
		p.frames = append(p.frames, wire.ResumeFrame{Seq: seq, Frame: frame})
		// Pairing: a KindData frame from a local process retires that
		// process's pending journalled send.
		if h, ok := wire.PeekHeader(frame); ok &&
			h.Kind == msg.KindData && wire.NodeOf(h.From) == rs.self {
			rs.proc(h.From).lastFrameLSN = lsn
		}

	case recPeerAck:
		peer, err := r.uv()
		if err != nil {
			return err
		}
		acked, err := r.uv()
		if err != nil {
			return err
		}
		if p := rs.peers[int(peer)]; p != nil {
			keep := p.frames[:0]
			for _, f := range p.frames {
				if f.Seq > acked {
					keep = append(keep, f)
				}
			}
			p.frames = keep
		}

	case recDelivered:
		from, err := r.uv()
		if err != nil {
			return err
		}
		seq, err := r.uv()
		if err != nil {
			return err
		}
		if seq > rs.watermk[int(from)] {
			rs.watermk[int(from)] = seq
		}
		im := &inMsg{
			inKey: inKey{from: int(from), seq: seq},
			frame: append([]byte(nil), r.buf...),
		}
		rs.inbox = append(rs.inbox, im)
		rs.inboxBy[im.inKey] = im

	case recConsumed:
		from, err := r.uv()
		if err != nil {
			return err
		}
		seq, err := r.uv()
		if err != nil {
			return err
		}
		if im := rs.inboxBy[inKey{from: int(from), seq: seq}]; im != nil {
			im.consumed = true
		}

	case recJournal:
		pid, err := r.uv()
		if err != nil {
			return err
		}
		e, to, err := retainEntry(lsn, append([]byte(nil), r.buf...))
		if err != nil {
			return err
		}
		p := rs.proc(ids.PID(pid))
		p.entries = append(p.entries, e)
		if key, ok := e.recvKey(); ok {
			if im := rs.inboxBy[key]; im != nil {
				im.consumed = true
			}
		}
		if e.kind == journal.KindSend && to != ids.NilPID && wire.NodeOf(to) != rs.self {
			p.lastSendLSN, p.lastSend = lsn, e
		}

	case recIntervalOpen:
		pid, err := r.uv()
		if err != nil {
			return err
		}
		ri, err := r.interval()
		if err != nil {
			return err
		}
		p := rs.proc(ids.PID(pid))
		p.intervals = append(p.intervals, ri)
		if ri.ID.Seq > p.maxSeq {
			p.maxSeq = ri.ID.Seq
		}
		if ri.ID.Epoch > p.maxEpoch {
			p.maxEpoch = ri.ID.Epoch
		}

	case recIntervalState:
		pid, err := r.uv()
		if err != nil {
			return err
		}
		ri, err := r.interval()
		if err != nil {
			return err
		}
		p := rs.proc(ids.PID(pid))
		for i := len(p.intervals) - 1; i >= 0; i-- {
			if p.intervals[i].ID == ri.ID {
				p.intervals[i] = ri
				break
			}
		}

	case recFinalize:
		pid, err := r.uv()
		if err != nil {
			return err
		}
		iid, err := r.iid()
		if err != nil {
			return err
		}
		p := rs.proc(ids.PID(pid))
		for i := len(p.intervals) - 1; i >= 0; i-- {
			if p.intervals[i].ID == iid {
				p.intervals[i].Definite = true
				break
			}
		}

	case recRollback:
		pid, err := r.uv()
		if err != nil {
			return err
		}
		iid, err := r.iid()
		if err != nil {
			return err
		}
		rs.rollback(ids.PID(pid), iid)

	case recDeadAID:
		pid, err := r.uv()
		if err != nil {
			return err
		}
		a, err := r.uv()
		if err != nil {
			return err
		}
		p := rs.proc(ids.PID(pid))
		if _, dup := p.dead[ids.AID(a)]; !dup {
			p.dead[ids.AID(a)] = struct{}{}
			p.deadOrder = append(p.deadOrder, ids.AID(a))
		}

	case recCompact:
		pid, err := r.uv()
		if err != nil {
			return err
		}
		iid, err := r.iid()
		if err != nil {
			return err
		}
		p := rs.proc(ids.PID(pid))
		p.entries = nil
		for i := range p.intervals {
			if p.intervals[i].ID == iid {
				kept := p.intervals[i]
				kept.JournalIndex = 0
				p.intervals = []core.RestoredInterval{kept}
				break
			}
		}
		p.base, p.baseLSN, p.hasBase = append([]byte(nil), r.buf...), lsn, true

	case recPoison:
		pid, err := r.uv()
		if err != nil {
			return err
		}
		rs.proc(ids.PID(pid)).poisoned = true

	case recAutoDeny:
		a, err := r.uv()
		if err != nil {
			return err
		}
		if rs.denied == nil {
			rs.denied = make(map[ids.AID]struct{})
		}
		if _, dup := rs.denied[ids.AID(a)]; !dup {
			rs.denied[ids.AID(a)] = struct{}{}
			rs.deniedSeq = append(rs.deniedSeq, ids.AID(a))
		}

	case recViewEpoch:
		epoch, err := r.uv()
		if err != nil {
			return err
		}
		count, err := r.uv()
		if err != nil {
			return err
		}
		for i := uint64(0); i < count; i++ {
			// The live set is informational (the view re-forms by gossip);
			// only the epoch matters for the restart.
			if _, err := r.uv(); err != nil {
				return err
			}
		}
		if epoch > rs.viewEpoch {
			rs.viewEpoch = epoch
		}

	case recWatermark:
		view, err := r.uv()
		if err != nil {
			return err
		}
		count, err := r.uv()
		if err != nil {
			return err
		}
		if rs.frontier == nil {
			rs.frontier = make(map[int]uint32)
		}
		for i := uint64(0); i < count; i++ {
			node, err := r.uv()
			if err != nil {
				return err
			}
			epoch, err := r.uv()
			if err != nil {
				return err
			}
			if uint32(epoch) > rs.frontier[int(node)] {
				rs.frontier[int(node)] = uint32(epoch)
			}
		}
		if view > rs.wmView {
			rs.wmView = view
		}

	case recAIDExport:
		a, err := r.uv()
		if err != nil {
			return err
		}
		blen, err := r.uv()
		if err != nil {
			return err
		}
		blob, err := r.take(int(blen))
		if err != nil {
			return err
		}
		if rs.aidExports == nil {
			rs.aidExports = make(map[ids.AID][]byte)
		}
		// Last record wins: each export is the machine's full snapshot,
		// and an empty blob tombstones an AID shipped to a new owner.
		if len(blob) == 0 {
			delete(rs.aidExports, ids.AID(a))
		} else {
			rs.aidExports[ids.AID(a)] = append([]byte(nil), blob...)
		}

	case recProcIndex:
		// One copy of the record backs every entry and the base retained
		// from it.
		r.buf = append([]byte(nil), r.buf...)
		px, err := r.procIndex()
		if err != nil {
			return err
		}
		// The snapshot replaces the process's folded state wholesale —
		// everything it carries was folded from records before it in this
		// same stream. The send/frame pairing LSNs are kept: they point at
		// records that are still earlier in the stream, and the snapshot's
		// journal still ends with the send they track.
		p := rs.proc(px.pid)
		p.intervals = px.intervals
		p.entries = make([]rEntry, len(px.entries))
		for i, enc := range px.entries {
			if p.entries[i], _, err = retainEntry(lsn, enc); err != nil {
				return err
			}
		}
		p.dead = make(map[ids.AID]struct{}, len(px.dead))
		p.deadOrder = px.dead
		for _, a := range px.dead {
			p.dead[a] = struct{}{}
		}
		p.base, p.baseLSN, p.hasBase = px.base, lsn, px.hasBase
		if px.nextSeq > 0 && px.nextSeq-1 > p.maxSeq {
			p.maxSeq = px.nextSeq - 1
		}
		if px.maxEpoch > p.maxEpoch {
			p.maxEpoch = px.maxEpoch
		}
		for _, ri := range px.intervals {
			if ri.ID.Seq > p.maxSeq {
				p.maxSeq = ri.ID.Seq
			}
			if ri.ID.Epoch > p.maxEpoch {
				p.maxEpoch = ri.ID.Epoch
			}
		}
		if px.terminated {
			p.terminated = true
		}

	case recTransplant:
		from, err := r.uv()
		if err != nil {
			return err
		}
		oldPid, err := r.uv()
		if err != nil {
			return err
		}
		newPid, err := r.uv()
		if err != nil {
			return err
		}
		if rs.transplants == nil {
			rs.transplants = make(map[ids.PID]TransplantOrigin)
		}
		rs.transplants[ids.PID(newPid)] = TransplantOrigin{
			From: int(from), OldPID: ids.PID(oldPid),
		}

	case recCkptSeq:
		peer, err := r.uv()
		if err != nil {
			return err
		}
		flags, err := r.byte()
		if err != nil {
			return err
		}
		if flags&ckptHasPeer != 0 {
			seq, err := r.uv()
			if err != nil {
				return err
			}
			p := rs.peers[int(peer)]
			if p == nil {
				p = &rPeer{}
				rs.peers[int(peer)] = p
			}
			if seq > p.lastSeq {
				p.lastSeq = seq
			}
		}
		if flags&ckptHasWm != 0 {
			d, err := r.uv()
			if err != nil {
				return err
			}
			if d > rs.watermk[int(peer)] {
				rs.watermk[int(peer)] = d
			}
		}

	case recCkptProc:
		pid, err := r.uv()
		if err != nil {
			return err
		}
		maxSeq, err := r.uv()
		if err != nil {
			return err
		}
		maxEpoch, err := r.uv()
		if err != nil {
			return err
		}
		flags, err := r.byte()
		if err != nil {
			return err
		}
		p := rs.proc(ids.PID(pid))
		if uint32(maxSeq) > p.maxSeq {
			p.maxSeq = uint32(maxSeq)
		}
		if uint32(maxEpoch) > p.maxEpoch {
			p.maxEpoch = uint32(maxEpoch)
		}
		if flags&ckptTerminated != 0 {
			p.terminated = true
		}

	default:
		return fmt.Errorf("durable: unknown record type %d", payload[0])
	}
	return nil
}

// adopt replaces the folded state with the just-completed checkpoint
// bracket: the bracket re-emitted everything the pre-checkpoint history
// folded to, so the tail continues from it exactly as it would from the
// full history. endLSN is the End record's LSN; payload is its body.
func (rs *recoverState) adopt(endLSN uint64, payload []byte) error {
	c := rs.ckpt
	rs.ckpt = nil

	// The End record carries the authoritative pending-resend set: which
	// journalled sends had no frame enqueued at checkpoint time. The
	// re-emitted journal entries alone would pair every send against the
	// surviving frames and mark long-acked sends (whose frames are rightly
	// absent) as pending, causing duplicate resends.
	r := &reader{buf: payload}
	n, err := r.uv()
	if err != nil {
		return fmt.Errorf("durable: checkpoint end: %w", err)
	}
	type pending struct {
		pid ids.PID
		enc []byte
	}
	pends := make([]pending, 0, n)
	for i := uint64(0); i < n; i++ {
		pid, err := r.uv()
		if err != nil {
			return fmt.Errorf("durable: checkpoint end: %w", err)
		}
		mlen, err := r.uv()
		if err != nil {
			return fmt.Errorf("durable: checkpoint end: %w", err)
		}
		mb, err := r.take(int(mlen))
		if err != nil {
			return fmt.Errorf("durable: checkpoint end: %w", err)
		}
		pends = append(pends, pending{pid: ids.PID(pid), enc: append([]byte(nil), mb...)})
	}

	begin := c.beginLSN
	*rs = *c
	rs.beginLSN = 0
	rs.adopted, rs.adoptedBegin, rs.tailRecords = true, begin, 0
	for _, p := range rs.procs {
		// Reset send/frame pairing: the bracket's own LSNs mean nothing.
		// Pending sends are re-marked below; everything else is retired.
		p.lastSendLSN, p.lastFrameLSN, p.lastSend = 0, 0, rEntry{}
	}
	for _, pd := range pends {
		p := rs.proc(pd.pid)
		p.lastSend = rEntry{kind: journal.KindSend, lsn: endLSN, msg: pd.enc}
		// endLSN > 0: still pending unless a tail frame record (whose LSN
		// exceeds endLSN) retires it, mirroring the live pairing rule.
		p.lastSendLSN, p.lastFrameLSN = endLSN, 0
	}
	return nil
}

// rollback mirrors Process.rollbackLocked: truncate history from iid,
// truncate the journal to iid's journal index, and release the consumed
// markers of discarded receives (the live rollback requeued those
// messages; any that were then dropped or re-received appear as later
// Consumed or journal records).
func (rs *recoverState) rollback(pid ids.PID, iid ids.IntervalID) {
	p := rs.proc(pid)
	pos := -1
	for i := range p.intervals {
		if p.intervals[i].ID == iid {
			pos = i
			break
		}
	}
	if pos < 0 {
		return
	}
	if pos == 0 {
		// Rolling back the root terminates the process; its state stays
		// as-is and the restore spawns it directly into the dead state.
		p.terminated = true
		return
	}
	ji := p.intervals[pos].JournalIndex
	p.intervals = p.intervals[:pos]
	if ji < len(p.entries) {
		for i := ji; i < len(p.entries); i++ {
			if key, ok := p.entries[i].recvKey(); ok {
				if im := rs.inboxBy[key]; im != nil {
					im.consumed = false
				}
			}
		}
		clear(p.entries[ji:]) // release the discarded bytes, not just the length
		p.entries = p.entries[:ji]
	}
}

// foldDir folds a node's WAL read-only, as node self, honouring
// checkpoint brackets exactly like a recovery fold. The files are never
// modified, so several survivors can read one corpse concurrently. It
// reads what the node's own restart would: the fold stops at the first
// damage (a torn or corrupt frame, an LSN gap), where Open would
// truncate, and stop names that place ("" when the WAL ends cleanly).
func foldDir(dir string, self int) (rs *recoverState, stop string, err error) {
	rs = newRecoverState(self)
	err = wal.Scan(dir, rs.apply, func(seg string, off int64, reason string) error {
		stop = fmt.Sprintf("%s @%d: %s", filepath.Base(seg), off, reason)
		return errStopped
	})
	if err != nil && !errors.Is(err, errStopped) {
		return nil, "", err
	}
	rs.dropTornBracket()
	return rs, stop, nil
}

// errStopped ends foldDir's scan at the first damage.
var errStopped = errors.New("durable: fold stopped at damage")

// dropTornBracket discards an unclosed checkpoint bracket at the end of
// the stream: the checkpoint was torn mid-write and never acknowledged,
// so the fold falls back to the state folded before it.
func (rs *recoverState) dropTornBracket() {
	if rs.ckpt != nil {
		rs.ckpt = nil
		rs.tornBracket = true
	}
}

// Extract is a node's WAL as read from the outside (ReadExtract): what
// a survivor needs to take over a dead member — its AID shard, its
// acknowledged-but-unconsumed frames, and its user processes.
type Extract struct {
	// AIDExports maps each AID the node hosted to its newest machine
	// snapshot — the last recAIDExport blob per AID, tombstones elided.
	// A ring successor adopts its slice (core's InstallExports with
	// onlyOwned=true); a machine whose snapshot was lost is re-created
	// Cold by the first retried adjudication.
	AIDExports map[ids.AID][]byte
	// Unconsumed holds the delivered-but-unconsumed inbound messages, in
	// arrival order, SrcNode/SrcSeq stamped — the fold that feeds
	// Recovered.Redeliver on a restart. The node acknowledged these
	// frames (their recDelivered records are synced before the wire ack,
	// see Store.SyncForAck) but never handed them to a consumer, so their
	// senders pruned them and only the WAL copy remains. A ring successor
	// hands their adjudications to its engine's park queue
	// (Engine.Requeue); the new owner's applied set deduplicates
	// survivors replaying the same corpse. Their Data is Orphans.
	Unconsumed []*msg.Message
	// Procs maps each of the node's user processes (by its PID there) to
	// its replayable state — the fold that feeds Recovered.Restore on a
	// self-restart. Terminated processes are included (flagged); adopters
	// skip them. Poisoned processes are left out: their durable state is
	// incomplete and rebirth from it would diverge.
	Procs map[ids.PID]*core.Restored
	// Resend holds journalled sends whose frames never reached the node's
	// resend queue — replay treats the send as performed, so the adopter
	// must re-send them.
	Resend []*msg.Message
	// StoppedAt names where the read stopped short of the WAL's end —
	// segment, byte offset and damage — or is "" when it read to a clean
	// end. Like the node's own restart, the read stops at the first
	// damage; a torn tail a crash left mid-write lands here too.
	StoppedAt string
	// ProcErr is set, and Procs and Resend are nil, when a surviving
	// journal payload no longer decodes: replaying a journal with a hole
	// would diverge, so no process is extracted. Everything else in the
	// Extract stands.
	ProcErr error
	// Unacked holds the node's outbound Data messages still sitting
	// unacknowledged in its resend queues. Its wire identity died with it,
	// so nobody retransmits them; the adopter re-sends them as fresh
	// messages. Delivery is at-least-once: a frame that did land just
	// before the death arrives twice, absorbed the same way
	// rollback-re-executed sends are (idempotent consumers, rpc CallID
	// dedup).
	Unacked []*msg.Message
	// Orphans holds the unconsumed Data messages addressed to the node's
	// own processes, in arrival order — the adopter re-injects the ones
	// bound for processes it adopts.
	Orphans []*msg.Message
}

// ReadExtract folds a node's WAL read-only, once, and returns everything
// a survivor takes over from it (DESIGN.md §13). node is the WAL's wire
// ID — the fold needs it for send/frame pairing exactly as a
// self-recovery would. The files are never modified, so several
// survivors can read one corpse concurrently, and a live node's WAL can
// be read while it runs. It reads the records a restart of the node
// would: damage ends the read, never a silent skip (StoppedAt); an
// undecodable journal payload fails process extraction only (ProcErr).
func ReadExtract(dir string, node int) (*Extract, error) {
	rs, stop, err := foldDir(dir, node)
	if err != nil {
		return nil, fmt.Errorf("durable: read extract: %w", err)
	}
	ex := &Extract{AIDExports: rs.aidExports, StoppedAt: stop}
	ex.Unconsumed, _ = rs.unconsumed()
	if ex.Procs, ex.Resend, err = rs.restored(); err != nil {
		ex.ProcErr = fmt.Errorf("durable: read processes: %w", err)
	}
	for _, p := range rs.peers {
		for _, f := range p.frames {
			// Non-Data loss is repaired by protocol re-fires.
			if h, ok := wire.PeekHeader(f.Frame); !ok || h.Kind != msg.KindData || wire.NodeOf(h.From) != node {
				continue
			}
			if m, err := wire.DecodeMessage(f.Frame); err == nil {
				ex.Unacked = append(ex.Unacked, m)
			}
		}
	}
	for _, im := range rs.inbox {
		if h, ok := wire.PeekHeader(im.frame); im.consumed || !ok || h.Kind != msg.KindData || wire.NodeOf(h.To) != node {
			continue
		}
		if m, err := wire.DecodeMessage(im.frame); err == nil {
			ex.Orphans = append(ex.Orphans, m)
		}
	}
	return ex, nil
}

// unconsumed materialises the delivered-but-unconsumed inbox in arrival
// order, SrcNode/SrcSeq stamped, and counts the frames that no longer
// decode (codec drift across the restart).
func (rs *recoverState) unconsumed() (out []*msg.Message, skipped int) {
	for _, im := range rs.inbox {
		if im.consumed {
			continue
		}
		m, err := decodeMsg(im.frame, im.from, im.seq)
		if err != nil {
			skipped++
			continue
		}
		out = append(out, m)
	}
	return out, skipped
}

// restored materialises every surviving process — not poisoned, with at
// least one interval — and the journalled sends still missing their
// frames, in PID order. This is where journal entries and compaction
// bases are finally decoded; entries rolled back or compacted away
// earlier in the stream never are. A payload that no longer decodes
// (unregistered type, codec drift) is an error naming the record.
func (rs *recoverState) restored() (map[ids.PID]*core.Restored, []*msg.Message, error) {
	procs := make(map[ids.PID]*core.Restored)
	var resend []*msg.Message
	for _, pid := range rs.sortedPIDs() {
		p := rs.procs[pid]
		if p.poisoned || len(p.intervals) == 0 {
			continue
		}
		r := &core.Restored{
			Intervals:  p.intervals,
			Dead:       p.deadOrder,
			HasBase:    p.hasBase,
			NextSeq:    p.maxSeq + 1,
			MaxEpoch:   p.maxEpoch,
			Terminated: p.terminated,
		}
		if len(p.entries) > 0 {
			r.Entries = make([]*journal.Entry, len(p.entries))
		}
		for i := range p.entries {
			e, err := decodeEntry(p.entries[i].enc)
			if err != nil {
				return nil, nil, fmt.Errorf("%s journal entry %d (lsn %d): %w", pid, i, p.entries[i].lsn, err)
			}
			r.Entries[i] = e
		}
		if p.hasBase {
			base, err := decodeAny(p.base)
			if err != nil {
				return nil, nil, fmt.Errorf("%s compaction snapshot (lsn %d): %w", pid, p.baseLSN, err)
			}
			r.Base = base
		}
		procs[pid] = r
		if p.pendingSend() {
			// The journal says this send happened but its frame never hit
			// a resend queue: the crash (or a queue overflow) swallowed
			// it. Replay will treat the send as already performed, so the
			// only repair is to enqueue the frame now.
			m, err := decodeMsg(p.lastSend.msg, p.lastSend.srcNode, p.lastSend.srcSeq)
			if err != nil {
				return nil, nil, fmt.Errorf("%s pending send (lsn %d): %w", pid, p.lastSend.lsn, err)
			}
			resend = append(resend, m)
		}
	}
	return procs, resend, nil
}

func (rs *recoverState) sortedPIDs() []ids.PID {
	pids := make([]ids.PID, 0, len(rs.procs))
	for pid := range rs.procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}

// finish converts the folded state into the boot-time resume values.
func (rs *recoverState) finish() (*Recovered, error) {
	// A torn bracket must additionally be voided on disk: the store
	// appends recCkptAbort before any new record, or a later recovery
	// would fold those new records into the discarded bracket.
	rs.dropTornBracket()
	rec := &Recovered{
		Checkpointed: rs.adopted,
		FromLSN:      rs.adoptedBegin,
		TailRecords:  rs.tailRecords,
		Resume:       &wire.Resume{Peers: make(map[int]wire.ResumePeer), Delivered: rs.watermk},
		ViewEpoch:    rs.viewEpoch,
		Frontier:     rs.frontier,
		FrontierView: rs.wmView,
		AIDExports:   rs.aidExports,
		Transplants:  rs.transplants,
		Denied:       rs.deniedSeq,
	}
	for id, p := range rs.peers {
		frames := p.frames
		if len(frames) == 0 {
			frames = nil // acked-empty and never-sent fold to the same resume state
		}
		rec.Resume.Peers[id] = wire.ResumePeer{NextSeq: p.lastSeq, Frames: frames}
	}
	var err error
	if rec.Restore, rec.Resend, err = rs.restored(); err != nil {
		return nil, fmt.Errorf("durable: recover: %w", err)
	}
	rec.Redeliver, rec.Skipped = rs.unconsumed()
	return rec, nil
}
