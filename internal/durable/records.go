// Package durable makes a hoped node crash-recoverable. It implements
// both persistence surfaces the runtime defines — wire.DurableHooks for
// the transport and core.Persister for the engine — over a single
// internal/wal log, and replays that log at boot into the resume state
// the two layers accept (wire.Resume, core.Restored).
//
// One log, two layers: interleaving transport and engine records in a
// single append-only stream is what makes the cross-layer invariants
// checkable by prefix durability alone. A journal entry always precedes
// the wire frame its send produced; a delivered frame always precedes
// the journal entry that consumed it. After a torn tail is truncated,
// every surviving record's prerequisites therefore also survive. See
// DESIGN.md §8 for the full crash-consistency argument.
package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/wire"
)

// Record type tags: the first byte of every WAL payload. Values are part
// of the on-disk format; never renumber, only append.
const (
	recPeerSend      = 1  // peer, seq, frame — outbound frame admitted to a resend queue
	recPeerAck       = 2  // peer, acked — cumulative ack watermark advanced
	recDelivered     = 3  // from, seq, frame — inbound frame accepted
	recConsumed      = 4  // from, seq — delivered message retired without a journal entry
	recJournal       = 5  // pid, entry — process journal append
	recIntervalOpen  = 6  // pid, interval — interval opened
	recIntervalState = 7  // pid, interval — interval dependency sets mutated
	recFinalize      = 8  // pid, iid — interval became definite
	recRollback      = 9  // pid, iid — interval and successors discarded
	recDeadAID       = 10 // pid, aid — assumption learned denied
	recCompact       = 11 // pid, iid, gob(base) — journal compacted to a snapshot
	recPoison        = 12 // pid, reason — persistence failed; drop pid from recovery
	recAutoDeny      = 13 // aid — assumption auto-denied by the liveness layer (engine-level, no pid)
	recViewEpoch     = 14 // epoch, live IDs — cluster membership view published at this epoch

	// Checkpoint bracket. A checkpoint is an ordinary run of records —
	// re-emitted from the store's shadow recover-state — delimited by
	// Begin/End, so the same fold that replays live history replays a
	// snapshot. Recovery folds the bracket into a nested state and adopts
	// it (replacing everything before Begin) only when End arrives; a torn
	// bracket is discarded, and the next boot appends Abort so the records
	// after the torn bracket are never mistaken for its continuation.
	recCkptBegin = 15 // ckpt ordinal — start of a checkpoint bracket
	recCkptEnd   = 16 // pending resends (pid, msg)* — end of bracket; adopt it
	recCkptAbort = 17 // (empty) — the preceding unclosed bracket is void
	recCkptSeq   = 18 // peer, flags, [sendSeq], [delivered] — per-peer watermarks a frame replay cannot reproduce
	recCkptProc  = 19 // pid, maxSeq, maxEpoch, flags — per-proc high-waters (rollback can shrink the interval set below them)

	recWatermark = 20 // viewEpoch, (node, epoch)* — agreed stability frontier advanced

	recAIDExport = 21 // aid, len, blob — hosted AID machine snapshot (ownership routing); empty blob = shipped away (tombstone)

	// Process transplant (DESIGN.md §13). recProcIndex is a full flattened
	// snapshot of one user process. It is written only at adoption: a
	// transplant adopter force-writes one under the reborn PID, so its own
	// restart can rebuild the adopted process from its own WAL. (Earlier
	// versions also wrote one every 64 journal appends; every reader folds
	// linearly from the first retained record, so those snapshots only
	// restated what the same scan had already folded. Old WALs holding
	// them still fold — the record replaces the process's state wholesale.)
	// recTransplant is the adopter's hand-off commit: "newPid is the reborn
	// incarnation of from's oldPid", written after the recProcIndex under
	// newPid and synced with it before the spawn, so a crashed transplant
	// is itself recoverable (the restart re-announces the mapping and
	// respawns the incarnation from that recProcIndex).
	recProcIndex  = 22 // pid, flags, maxSeq, maxEpoch, intervals, entries, dead, [base] — per-process export index
	recTransplant = 23 // fromNode, oldPid, newPid — process adopted off a dead node

	// recReap records reaped processes (core.ProcReaper, DESIGN.md §4
	// item 11): each one's replay state is dropped from the fold and only
	// its tombstone is kept — the epochs of its surviving intervals and
	// its epoch high-water. The engine writes one tombstone per record as
	// it reaps; a checkpoint packs many to a record, in reap order. PIDs
	// are delta-coded against the previous tombstone's (zigzag: a child
	// reaped before its parent steps back), epochs against the previous
	// epoch (uint32 wrap-around), the high-water against the last epoch.
	recReap = 24 // count, (pidDelta, n, epochDelta*n, maxEpochDelta)* — tombstones of reaped processes
)

// recCkptSeq flag bits.
const (
	ckptHasPeer = 1 << iota // a send-side peer entry exists (sendSeq follows)
	ckptHasWm               // a delivered watermark exists (delivered follows)
)

// recCkptProc flag bits.
const (
	ckptTerminated = 1 << iota // the process's root rolled back pre-checkpoint
)

// recProcIndex flag bits.
const (
	pixTerminated = 1 << iota // the process's root rolled back pre-snapshot
	pixHasBase                // a compaction snapshot follows (gob, last field)
)

// anyEnv wraps interface values (journal notes, compaction snapshots) so
// gob can encode them; concrete types must be gob-registered
// (wire.RegisterPayload does it). Message payloads are not this
// package's format: an embedded message is wire.AppendMessage's bytes,
// whose payload is binary where the type has a wire codec and gob
// otherwise — and gob in every record written before wire's version 4.
type anyEnv struct{ V any }

func appendUv(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendIID(b []byte, id ids.IntervalID) []byte {
	b = appendUv(b, uint64(id.Proc))
	b = appendUv(b, uint64(id.Seq))
	return appendUv(b, uint64(id.Epoch))
}

func appendAIDs(b []byte, set []ids.AID) []byte {
	b = appendUv(b, uint64(len(set)))
	for _, a := range set {
		b = appendUv(b, uint64(a))
	}
	return b
}

// appendTomb encodes one tombstone of a recReap record; prev is the
// previous tombstone's PID in the same record (0 for the first).
func appendTomb(b []byte, prev, pid ids.PID, survivors []uint32, maxEpoch uint32) []byte {
	d := int64(pid - prev)
	b = appendUv(b, uint64(d<<1)^uint64(d>>63))
	b = appendUv(b, uint64(len(survivors)))
	var last uint32
	for _, ep := range survivors {
		b = appendUv(b, uint64(ep-last))
		last = ep
	}
	return appendUv(b, uint64(maxEpoch-last))
}

// Journal entry flag bits.
const (
	entResult = 1 << iota
	entHasMsg
	entHasNote
)

// appendEntry encodes a journal entry. The embedded message reuses the
// wire codec (so payload registration rules match the transport) plus the
// SrcNode/SrcSeq provenance the wire layout deliberately omits.
func appendEntry(b []byte, e *journal.Entry) ([]byte, error) {
	b = appendUv(b, uint64(e.Kind))
	b = appendUv(b, uint64(e.AID))
	var flags byte
	if e.Result {
		flags |= entResult
	}
	if e.Msg != nil {
		flags |= entHasMsg
	}
	if e.Note != nil {
		flags |= entHasNote
	}
	b = append(b, flags)
	b = appendIID(b, e.Interval)
	b = appendUv(b, uint64(e.Child))
	if e.Msg != nil {
		b = appendUv(b, uint64(e.Msg.SrcNode))
		b = appendUv(b, e.Msg.SrcSeq)
		mark := len(b)
		b = appendUv(b, 0) // patched below
		enc, err := wire.AppendMessage(b, e.Msg)
		if err != nil {
			return b, err
		}
		// Patch the length prefix: re-append with the real size. Uvarint
		// width may change, so rebuild the tail (messages are small).
		body := append([]byte(nil), enc[mark+1:]...)
		b = appendUv(enc[:mark], uint64(len(body)))
		b = append(b, body...)
	}
	if e.Note != nil {
		var nb bytes.Buffer
		if err := gob.NewEncoder(&nb).Encode(anyEnv{V: e.Note}); err != nil {
			return b, fmt.Errorf("durable: encode note %T: %w", e.Note, err)
		}
		b = append(b, nb.Bytes()...) // last field: rest of record
	}
	return b, nil
}

// appendAny gob-encodes an interface value (compaction snapshot) as the
// final field of a record.
func appendAny(b []byte, v any) ([]byte, error) {
	var nb bytes.Buffer
	if err := gob.NewEncoder(&nb).Encode(anyEnv{V: v}); err != nil {
		return b, fmt.Errorf("durable: encode snapshot %T: %w", v, err)
	}
	return append(b, nb.Bytes()...), nil
}

// appendProcIndex encodes one process's full flattened snapshot (the
// recProcIndex body, after the tag byte). Entries are individually
// length-prefixed — an entry's trailing note is gob-encoded "to the end
// of the record", so each entry must be decoded inside its own
// sub-buffer. The compaction base, when present, is the record's own
// final gob field.
func appendProcIndex(b []byte, pid ids.PID, r *core.Restored) ([]byte, error) {
	b = appendUv(b, uint64(pid))
	var flags byte
	if r.Terminated {
		flags |= pixTerminated
	}
	if r.HasBase {
		flags |= pixHasBase
	}
	b = append(b, flags)
	b = appendUv(b, uint64(r.NextSeq))
	b = appendUv(b, uint64(r.MaxEpoch))
	b = appendUv(b, uint64(len(r.Intervals)))
	for _, ri := range r.Intervals {
		b = appendInterval(b, ri)
	}
	b = appendUv(b, uint64(len(r.Entries)))
	for _, e := range r.Entries {
		eb, err := appendEntry(nil, e)
		if err != nil {
			return b, err
		}
		b = appendUv(b, uint64(len(eb)))
		b = append(b, eb...)
	}
	b = appendAIDs(b, r.Dead)
	if r.HasBase {
		var err error
		if b, err = appendAny(b, r.Base); err != nil {
			return b, err
		}
	}
	return b, nil
}

// appendInterval encodes an interval record in flat form.
func appendInterval(b []byte, ri core.RestoredInterval) []byte {
	b = appendIID(b, ri.ID)
	b = appendUv(b, uint64(ri.Kind))
	b = appendUv(b, uint64(ri.JournalIndex))
	b = appendUv(b, uint64(ri.GuessAID))
	var def byte
	if ri.Definite {
		def = 1
	}
	b = append(b, def)
	b = appendAIDs(b, ri.IDO)
	b = appendAIDs(b, ri.UDO)
	b = appendAIDs(b, ri.Cut)
	b = appendAIDs(b, ri.IHA)
	b = appendAIDs(b, ri.IHD)
	return b
}

// ---------------------------------------------------------------------------
// Decoding

// reader is a bounds-checked cursor over one record payload.
type reader struct{ buf []byte }

func (r *reader) uv() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, fmt.Errorf("durable: bad uvarint")
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if len(r.buf) == 0 {
		return 0, fmt.Errorf("durable: truncated record")
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || n > len(r.buf) {
		return nil, fmt.Errorf("durable: truncated record (%d of %d bytes)", len(r.buf), n)
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b, nil
}

func (r *reader) iid() (ids.IntervalID, error) {
	proc, err := r.uv()
	if err != nil {
		return ids.NilInterval, err
	}
	seq, err := r.uv()
	if err != nil {
		return ids.NilInterval, err
	}
	epoch, err := r.uv()
	if err != nil {
		return ids.NilInterval, err
	}
	return ids.IntervalID{Proc: ids.PID(proc), Seq: uint32(seq), Epoch: uint32(epoch)}, nil
}

func (r *reader) aids() ([]ids.AID, error) {
	n, err := r.uv()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(r.buf)) {
		return nil, fmt.Errorf("durable: AID set of %d exceeds record size", n)
	}
	set := make([]ids.AID, n)
	for i := range set {
		v, err := r.uv()
		if err != nil {
			return nil, err
		}
		set[i] = ids.AID(v)
	}
	return set, nil
}

// tomb parses one tombstone of a recReap record (appendTomb's inverse);
// prev is the previous tombstone's PID in the record. Its surviving
// epochs are appended to arena: they are grown[len(arena):].
func (r *reader) tomb(prev ids.PID, arena []uint32) (pid ids.PID, maxEpoch uint32, grown []uint32, err error) {
	z, err := r.uv()
	if err != nil {
		return 0, 0, arena, err
	}
	pid = prev + ids.PID(int64(z>>1)^-int64(z&1))
	n, err := r.uv()
	if err != nil {
		return 0, 0, arena, err
	}
	var last uint32
	for ; n > 0; n-- {
		d, err := r.uv()
		if err != nil {
			return 0, 0, arena, err
		}
		last += uint32(d)
		arena = append(arena, last)
	}
	d, err := r.uv()
	if err != nil {
		return 0, 0, arena, err
	}
	return pid, last + uint32(d), arena, nil
}

// entryHeader is the fixed prefix of an encoded journal entry: every
// field before the trailing gob note, with the embedded message left as
// its encoded bytes.
type entryHeader struct {
	kind    journal.Kind
	aid     ids.AID
	flags   byte
	iid     ids.IntervalID
	child   ids.PID
	srcNode int
	srcSeq  uint64
	msg     []byte // encoded embedded message, aliasing the input; nil when absent
}

// entryHeader parses an entry's fixed prefix without touching a gob
// stream, leaving the cursor at the note (if any). This is all the fold
// reads of an entry; entry() finishes the job when a value is needed.
func (r *reader) entryHeader() (h entryHeader, err error) {
	kind, err := r.uv()
	if err != nil {
		return h, err
	}
	aid, err := r.uv()
	if err != nil {
		return h, err
	}
	if h.flags, err = r.byte(); err != nil {
		return h, err
	}
	if h.iid, err = r.iid(); err != nil {
		return h, err
	}
	child, err := r.uv()
	if err != nil {
		return h, err
	}
	h.kind, h.aid, h.child = journal.Kind(kind), ids.AID(aid), ids.PID(child)
	if h.flags&entHasMsg != 0 {
		srcNode, err := r.uv()
		if err != nil {
			return h, err
		}
		if h.srcSeq, err = r.uv(); err != nil {
			return h, err
		}
		mlen, err := r.uv()
		if err != nil {
			return h, err
		}
		if h.msg, err = r.take(int(mlen)); err != nil {
			return h, err
		}
		h.srcNode = int(srcNode)
	}
	return h, nil
}

// entry materialises a journal entry: the header, then the two parts
// the fold never opens — the embedded message (wire's codec) and the
// note (gob).
func (r *reader) entry() (*journal.Entry, error) {
	h, err := r.entryHeader()
	if err != nil {
		return nil, err
	}
	e := &journal.Entry{
		Kind:     h.kind,
		AID:      h.aid,
		Result:   h.flags&entResult != 0,
		Interval: h.iid,
		Child:    h.child,
	}
	if h.flags&entHasMsg != 0 {
		if e.Msg, err = decodeMsg(h.msg, h.srcNode, h.srcSeq); err != nil {
			return nil, fmt.Errorf("durable: journalled message: %w", err)
		}
	}
	if h.flags&entHasNote != 0 {
		if e.Note, err = decodeAny(r.buf); err != nil {
			return nil, fmt.Errorf("durable: journalled note: %w", err)
		}
		r.buf = nil
	}
	return e, nil
}

// decodeEntry materialises a retained journal entry (appendEntry's
// inverse).
func decodeEntry(enc []byte) (*journal.Entry, error) {
	return (&reader{buf: enc}).entry()
}

// decodeMsg materialises a retained wire message and stamps the WAL
// provenance the wire layout deliberately omits.
func decodeMsg(enc []byte, srcNode int, srcSeq uint64) (*msg.Message, error) {
	m, err := wire.DecodeMessage(enc)
	if err != nil {
		return nil, err
	}
	m.SrcNode, m.SrcSeq = srcNode, srcSeq
	return m, nil
}

// decodeAny is appendAny's inverse.
func decodeAny(enc []byte) (any, error) {
	var env anyEnv
	if err := gob.NewDecoder(bytes.NewReader(enc)).Decode(&env); err != nil {
		return nil, err
	}
	return env.V, nil
}

func (r *reader) interval() (core.RestoredInterval, error) {
	var ri core.RestoredInterval
	iid, err := r.iid()
	if err != nil {
		return ri, err
	}
	ri.ID = iid
	kind, err := r.uv()
	if err != nil {
		return ri, err
	}
	ji, err := r.uv()
	if err != nil {
		return ri, err
	}
	ga, err := r.uv()
	if err != nil {
		return ri, err
	}
	def, err := r.byte()
	if err != nil {
		return ri, err
	}
	ri.Kind, ri.JournalIndex, ri.GuessAID, ri.Definite = interval.OpenKind(kind), int(ji), ids.AID(ga), def != 0
	if ri.IDO, err = r.aids(); err != nil {
		return ri, err
	}
	if ri.UDO, err = r.aids(); err != nil {
		return ri, err
	}
	if ri.Cut, err = r.aids(); err != nil {
		return ri, err
	}
	if ri.IHA, err = r.aids(); err != nil {
		return ri, err
	}
	if ri.IHD, err = r.aids(); err != nil {
		return ri, err
	}
	return ri, nil
}

// procIndex is a parsed recProcIndex body with its gob-bearing parts —
// the journal entries and the compaction base — left as encoded bytes
// aliasing the input.
type procIndex struct {
	pid        ids.PID
	nextSeq    uint32
	maxEpoch   uint32
	terminated bool
	intervals  []core.RestoredInterval
	entries    [][]byte // each in appendEntry's layout
	dead       []ids.AID
	base       []byte // appendAny's layout; meaningful only when hasBase
	hasBase    bool
}

// procIndex parses a recProcIndex body (appendProcIndex's inverse).
func (r *reader) procIndex() (*procIndex, error) {
	pid, err := r.uv()
	if err != nil {
		return nil, err
	}
	flags, err := r.byte()
	if err != nil {
		return nil, err
	}
	nextSeq, err := r.uv()
	if err != nil {
		return nil, err
	}
	maxEpoch, err := r.uv()
	if err != nil {
		return nil, err
	}
	px := &procIndex{
		pid:        ids.PID(pid),
		nextSeq:    uint32(nextSeq),
		maxEpoch:   uint32(maxEpoch),
		terminated: flags&pixTerminated != 0,
	}
	nInt, err := r.uv()
	if err != nil {
		return nil, err
	}
	if nInt > uint64(len(r.buf)) {
		return nil, fmt.Errorf("durable: interval set of %d exceeds record size", nInt)
	}
	for i := uint64(0); i < nInt; i++ {
		ri, err := r.interval()
		if err != nil {
			return nil, err
		}
		px.intervals = append(px.intervals, ri)
	}
	nEnt, err := r.uv()
	if err != nil {
		return nil, err
	}
	if nEnt > uint64(len(r.buf)) {
		return nil, fmt.Errorf("durable: entry set of %d exceeds record size", nEnt)
	}
	for i := uint64(0); i < nEnt; i++ {
		elen, err := r.uv()
		if err != nil {
			return nil, err
		}
		eb, err := r.take(int(elen))
		if err != nil {
			return nil, err
		}
		px.entries = append(px.entries, eb)
	}
	if px.dead, err = r.aids(); err != nil {
		return nil, err
	}
	if flags&pixHasBase != 0 {
		px.base, px.hasBase = r.buf, true
		r.buf = nil
	}
	return px, nil
}

// Describe renders the body of one WAL record for waldump -v. The kinds
// that carry retained bytes — frames, journal entries, snapshots — are
// opened on demand through the same materialisers recovery's finish()
// uses (decodeEntry, decodeMsg, decodeAny, procIndex), so the dump shows what a
// recovery would make of the record. A record that does not parse or
// decode is reported in the text, never fatal; kinds with nothing worth
// opening return "".
func Describe(payload []byte) string {
	if len(payload) == 0 {
		return ""
	}
	r := &reader{buf: payload[1:]}
	bad := func(err error) string { return fmt.Sprintf("(malformed: %v)", err) }
	switch payload[0] {
	case recPeerSend, recDelivered:
		peer, err := r.uv()
		if err != nil {
			return bad(err)
		}
		seq, err := r.uv()
		if err != nil {
			return bad(err)
		}
		return fmt.Sprintf("node=%d seq=%d %s", peer, seq, describeMsg(r.buf))
	case recJournal:
		pid, err := r.uv()
		if err != nil {
			return bad(err)
		}
		return fmt.Sprintf("%s %s", ids.PID(pid), describeEntry(r.buf))
	case recCompact:
		pid, err := r.uv()
		if err != nil {
			return bad(err)
		}
		iid, err := r.iid()
		if err != nil {
			return bad(err)
		}
		base, err := decodeAny(r.buf)
		if err != nil {
			return fmt.Sprintf("%s keep=%s base=(undecodable: %v)", ids.PID(pid), iid, err)
		}
		return fmt.Sprintf("%s keep=%s base=%T", ids.PID(pid), iid, base)
	case recReap:
		count, err := r.uv()
		if err != nil {
			return bad(err)
		}
		var first, last ids.PID
		for i := uint64(0); i < count; i++ {
			if last, _, _, err = r.tomb(last, nil); err != nil {
				return bad(err)
			}
			if i == 0 {
				first = last
			}
		}
		if count == 1 {
			return fmt.Sprintf("tombstones=1 %s", first)
		}
		return fmt.Sprintf("tombstones=%d %s..%s", count, first, last)
	case recProcIndex:
		px, err := r.procIndex()
		if err != nil {
			return bad(err)
		}
		undecodable := 0
		for _, enc := range px.entries {
			if _, err := decodeEntry(enc); err != nil {
				undecodable++
			}
		}
		out := fmt.Sprintf("%s intervals=%d entries=%d dead=%d base=%v nextseq=%d maxepoch=%d terminated=%v",
			px.pid, len(px.intervals), len(px.entries), len(px.dead), px.hasBase, px.nextSeq, px.maxEpoch, px.terminated)
		if undecodable > 0 {
			out += fmt.Sprintf(" UNDECODABLE-ENTRIES=%d", undecodable)
		}
		return out
	}
	return ""
}

func describeEntry(enc []byte) string {
	e, err := decodeEntry(enc)
	if err != nil {
		return fmt.Sprintf("(undecodable: %v)", err)
	}
	out := e.Kind.String()
	if e.AID != ids.NilAID {
		out += fmt.Sprintf(" %s=%v", e.AID, e.Result)
	}
	if e.Msg != nil {
		out += fmt.Sprintf(" %s %s→%s payload=%T", e.Msg.Kind, e.Msg.From, e.Msg.To, e.Msg.Payload)
		if e.Msg.SrcSeq != 0 {
			out += fmt.Sprintf(" src=%d/%d", e.Msg.SrcNode, e.Msg.SrcSeq)
		}
	}
	if e.Note != nil {
		out += fmt.Sprintf(" note=%T", e.Note)
	}
	return out
}

func describeMsg(enc []byte) string {
	m, err := decodeMsg(enc, 0, 0)
	if err != nil {
		return fmt.Sprintf("(undecodable: %v)", err)
	}
	return fmt.Sprintf("%s %s→%s payload=%T", m.Kind, m.From, m.To, m.Payload)
}
