// Package wal implements the segmented, checksummed, append-only
// write-ahead log that gives hoped nodes crash durability. The log knows
// nothing about HOPE: records are opaque byte slices, identified by a
// monotonically increasing LSN (the record's index since the log was first
// created). Package durable defines the record schema layered on top.
//
// # Disk format
//
// A log is a directory of segment files named %016x.wal, where the hex
// number is the LSN of the segment's first record. Each segment starts
// with a 16-byte header — the 8-byte magic "HOPEWAL1" followed by the
// first LSN as a big-endian u64 — and then a sequence of records:
//
//	u32 payload length | u32 CRC-32C (Castagnoli) of payload | payload
//
// All integers are big-endian. A record is valid only if its full frame
// is present and the checksum matches; recovery stops at the first
// invalid byte, truncates the segment there, and discards any later
// segments (a torn tail can only be at the point writing stopped, so
// anything after it was never acknowledged as durable).
//
// # Fsync policies
//
//   - SyncAlways:   every Append returns only after its record is on
//     stable storage, but concurrent appenders share fsyncs (group
//     commit): the first caller to need durability becomes the leader,
//     optionally lingers Options.Linger to let more appends pile in,
//     and issues one fsync that acks every record it covers; followers
//     park until a leader's fsync covers their LSN.
//   - SyncInterval: group commit on a timer — appends buffer in memory
//     and a background ticker fsyncs every Options.Interval. Callers
//     that need a durability barrier (e.g. before acking a peer) call
//     Sync, which always performs a real fsync regardless of policy.
//   - SyncNone:     never fsync except on Sync/Close. For benchmarks.
//
// A failed fsync is latched permanently (the fsyncgate rule: after a
// failed fsync the kernel may have dropped the dirty pages, so retrying
// silently would report success against data that never reached disk).
// Every subsequent Append and Sync returns the first failure.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	magic      = "HOPEWAL1"
	headerSize = 16
	frameSize  = 8 // u32 length + u32 crc
	// MaxRecord bounds a single record payload. Matches the wire layer's
	// frame cap: anything bigger is corruption, not data.
	MaxRecord = 1 << 26

	defaultSegmentBytes = int64(64 << 20)
	defaultInterval     = 2 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Policy selects when appended records are fsynced to stable storage.
type Policy int

const (
	// SyncInterval is the default: group commit on a background ticker.
	SyncInterval Policy = iota
	// SyncAlways fsyncs every append before it returns.
	SyncAlways
	// SyncNone never fsyncs on its own; only Sync/Close do.
	SyncNone
)

// ParsePolicy maps the hoped flag spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always|interval|none)", s)
}

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Options configures Open.
type Options struct {
	// Dir is the log directory; created if absent.
	Dir string
	// SegmentBytes rotates to a new segment once the active one exceeds
	// this size. Default 64 MiB.
	SegmentBytes int64
	// Policy is the fsync policy. Default SyncInterval.
	Policy Policy
	// Interval is the group-commit period for SyncInterval. Default 2ms.
	Interval time.Duration
	// Linger bounds how long a SyncAlways group-commit leader waits for
	// followers to append before issuing the shared fsync, trading that
	// much latency for batch size.
	// Default 0: batching still happens — appenders that arrive while a
	// fsync is in flight join the next one — but no latency is added.
	Linger time.Duration
	// OnRecord, when non-nil, is invoked for every valid record found
	// during Open's recovery scan, in LSN order. An error aborts Open.
	OnRecord func(lsn uint64, payload []byte) error
}

// Metrics is a point-in-time snapshot of the log's counters.
type Metrics struct {
	Appends     uint64 // records appended this run
	AppendBytes uint64 // payload bytes appended this run
	Syncs       uint64 // fsyncs issued
	Batched     uint64 // SyncAlways appends made durable by a fsync another appender led
	Rotations   uint64 // segment rotations
	Prunes      uint64 // segments deleted by Prune

	TornTruncations  uint64        // torn-tail truncations during Open
	RecoveredRecords uint64        // valid records scanned by Open
	RecoveredBytes   uint64        // payload bytes scanned by Open
	RecoveredFrom    uint64        // LSN of the first record Open replayed (pruned history starts here)
	RecoveryTime     time.Duration // wall time of the Open scan
}

type segment struct {
	path  string
	first uint64 // LSN of the segment's first record
}

// fsyncFile indirects the record-durability fsync so tests can inject
// failures (the segment header and directory syncs stay direct: they run
// once per rotation, not per commit).
var fsyncFile = func(f *os.File) error { return f.Sync() }

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	segSize  int64 // bytes written to the active segment (incl. header)
	segments []segment
	nextLSN  uint64
	dirty    bool // unsynced appends present
	closed   bool
	syncErr  error      // first fsync/flush failure, latched forever (fsyncgate)
	syncBusy bool       // a shared fsync of l.f is in flight outside l.mu
	syncIdle *sync.Cond // on l.mu; broadcast when syncBusy clears

	// durableLSN is the group-commit watermark: every record with
	// LSN < durableLSN is on stable storage.
	durableLSN atomic.Uint64

	// gc is the SyncAlways leader/follower commit state. Lock order:
	// gc.mu may be held while taking l.mu, never the reverse.
	gc struct {
		mu      sync.Mutex
		cond    *sync.Cond
		leading bool // a leader is lingering or fsyncing right now
	}

	stop chan struct{}
	done chan struct{}

	appends     atomic.Uint64
	appendBytes atomic.Uint64
	syncs       atomic.Uint64
	batched     atomic.Uint64
	rotations   atomic.Uint64
	prunes      atomic.Uint64

	tornTruncations  uint64
	recoveredRecords uint64
	recoveredBytes   uint64
	recoveredFrom    uint64
	recoveryTime     time.Duration
}

// Open opens (creating if necessary) the log in opts.Dir, scans every
// segment validating records, truncates any torn tail, and leaves the log
// positioned for appending. If opts.OnRecord is set it receives each
// valid record during the scan.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultInterval
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}

	l := &Log{opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	l.syncIdle = sync.NewCond(&l.mu)
	l.gc.cond = sync.NewCond(&l.gc.mu)
	start := time.Now()
	if err := l.scan(); err != nil {
		return nil, err
	}
	l.recoveryTime = time.Since(start)

	if err := l.openActive(); err != nil {
		return nil, err
	}
	l.durableLSN.Store(l.nextLSN)
	if opts.Policy == SyncInterval {
		go l.groupCommit()
	} else {
		close(l.done)
	}
	return l, nil
}

// listSegments returns the segment files sorted by first LSN.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 16, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// scan validates every segment in order, invoking OnRecord for each valid
// record, truncating the first torn record and dropping everything after.
func (l *Log) scan() error {
	segs, err := listSegments(l.opts.Dir)
	if err != nil {
		return err
	}
	lsn := uint64(0)
	if len(segs) > 0 {
		lsn = segs[0].first
	}
	l.recoveredFrom = lsn
	torn := false
	for _, seg := range segs {
		if torn || seg.first != lsn {
			// Unreachable segment: either follows a torn tail or has a
			// gap in LSN space. Never acknowledged durable; drop it.
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: drop segment: %w", err)
			}
			l.tornTruncations++
			continue
		}
		validEnd, n, err := l.scanSegment(seg, lsn)
		if err != nil {
			return err
		}
		lsn += n
		fi, statErr := os.Stat(seg.path)
		if statErr != nil {
			return fmt.Errorf("wal: %w", statErr)
		}
		if validEnd < headerSize {
			// The segment header itself is torn: the file holds nothing
			// durable and cannot be appended to. Drop it entirely.
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: drop torn segment: %w", err)
			}
			l.tornTruncations++
			torn = true
			continue
		}
		if fi.Size() > validEnd {
			// Torn tail: truncate to the last valid record boundary. The
			// segment itself (its valid prefix) is kept; every later
			// segment is unreachable and dropped above.
			if err := os.Truncate(seg.path, validEnd); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			l.tornTruncations++
			torn = true
		}
		l.segments = append(l.segments, seg)
	}
	l.nextLSN = lsn
	return nil
}

// scanSegment validates one segment, returning the byte offset just past
// the last valid record and the number of valid records.
func (l *Log) scanSegment(seg segment, lsn uint64) (validEnd int64, n uint64, err error) {
	stop, _, err := readSegment(seg, func(at uint64, payload []byte) error {
		if l.opts.OnRecord != nil {
			if err := l.opts.OnRecord(at, payload); err != nil {
				return fmt.Errorf("wal: replay lsn %d: %w", at, err)
			}
		}
		l.recoveredRecords++
		l.recoveredBytes += uint64(len(payload))
		return nil
	}, nil)
	if err != nil {
		return 0, 0, err
	}
	return stop.off, stop.lsn - lsn, nil
}

// cursor is a position in a segment: the byte offset and LSN of the
// next frame.
type cursor struct {
	off int64
	lsn uint64
}

// damage is an invalid spot in a segment: its byte offset and why.
type damage struct {
	off    int64
	reason string
}

// readSegment is the one reader of the segment format, shared by Open's
// recovery scan and the forensic Scan. It passes each valid record to
// onRecord in LSN order and stops at the first damage, returning where
// it stopped (offset 0 for a damaged header, else the start of the
// damaged frame or the end of the file) and the damage (nil at a clean
// end). With skip non-nil, a frame that is whole but fails its checksum
// goes to skip instead, and reading resynchronizes at the next frame,
// which its length still locates. An error from either callback aborts
// the read.
func readSegment(seg segment, onRecord func(lsn uint64, payload []byte) error, skip func(damage) error) (cursor, *damage, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return cursor{}, nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()

	at := cursor{lsn: seg.first}
	var hdr [headerSize]byte
	if n, err := io.ReadFull(f, hdr[:]); err != nil {
		return at, &damage{0, fmt.Sprintf("torn header: %d of %d bytes", n, headerSize)}, nil
	}
	if string(hdr[:8]) != magic {
		return at, &damage{0, fmt.Sprintf("bad magic %q", hdr[:8])}, nil
	}
	if first := binary.BigEndian.Uint64(hdr[8:]); first != seg.first {
		return at, &damage{8, fmt.Sprintf("header LSN %d does not match file name LSN %d", first, seg.first)}, nil
	}
	at.off = headerSize

	br := bufio.NewReaderSize(f, 1<<20)
	var frame [frameSize]byte
	var payload []byte
	for {
		n, err := io.ReadFull(br, frame[:])
		if err == io.EOF {
			return at, nil, nil // clean end of segment
		}
		if err != nil {
			return at, &damage{at.off, fmt.Sprintf("torn frame header: %d of %d bytes", n, frameSize)}, nil
		}
		size := binary.BigEndian.Uint32(frame[:4])
		sum := binary.BigEndian.Uint32(frame[4:])
		if size > MaxRecord {
			// An implausible length gives no trustworthy next-frame
			// boundary; nothing after this point in the segment can be
			// attributed reliably.
			return at, &damage{at.off, fmt.Sprintf("implausible record length %d (max %d)", size, MaxRecord)}, nil
		}
		if cap(payload) < int(size) {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if n, err := io.ReadFull(br, payload); err != nil {
			return at, &damage{at.off, fmt.Sprintf("torn payload: %d of %d bytes", n, size)}, nil
		}
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			d := damage{at.off, fmt.Sprintf("crc mismatch on lsn %d: stored %08x computed %08x over %dB", at.lsn, sum, got, size)}
			if skip == nil {
				return at, &d, nil
			}
			if err := skip(d); err != nil {
				return at, nil, err
			}
		} else if err := onRecord(at.lsn, payload); err != nil {
			return at, nil, err
		}
		at.off += frameSize + int64(size)
		at.lsn++
	}
}

// openActive opens the last segment for appending, creating the first
// segment if the directory is empty.
func (l *Log) openActive() error {
	if len(l.segments) == 0 {
		return l.newSegment()
	}
	seg := l.segments[len(l.segments)-1]
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segSize = fi.Size()
	l.bw = bufio.NewWriterSize(f, 1<<16)
	return nil
}

// newSegment rotates to a fresh segment starting at nextLSN. Caller holds
// l.mu (or is Open, single-threaded).
func (l *Log) newSegment() error {
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("%016x.wal", l.nextLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.BigEndian.PutUint64(hdr[8:], l.nextLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	// Make the new file durable in the directory before we rely on it:
	// the header write plus a directory fsync, so a crash right after
	// rotation cannot lose the file name.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	l.segSize = headerSize
	l.segments = append(l.segments, segment{path: path, first: l.nextLSN})
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Append writes one record and returns its LSN. Durability depends on the
// policy: with SyncAlways the record is on stable storage when Append
// returns (via a group commit shared with concurrent appenders);
// otherwise call Sync for a barrier.
func (l *Log) Append(payload []byte) (uint64, error) {
	return l.append(payload, l.opts.Policy == SyncAlways)
}

// AppendNoSync writes one record without ever initiating a policy fsync,
// even under SyncAlways: the caller promises a Sync barrier later. Bulk
// writers (the durable layer's checkpoint emission) use it so a batch of
// records costs one fsync, not one per record.
func (l *Log) AppendNoSync(payload []byte) (uint64, error) {
	return l.append(payload, false)
}

func (l *Log) append(payload []byte, waitDurable bool) (uint64, error) {
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: record %d bytes exceeds max %d", len(payload), MaxRecord)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, errors.New("wal: closed")
	}
	if l.syncErr != nil {
		err := l.failedLocked()
		l.mu.Unlock()
		return 0, err
	}
	var frame [frameSize]byte
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	if _, err := l.bw.Write(frame[:]); err != nil {
		l.syncErr = err
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: %w", err)
	}
	if _, err := l.bw.Write(payload); err != nil {
		l.syncErr = err
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: %w", err)
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.segSize += frameSize + int64(len(payload))
	l.dirty = true
	l.appends.Add(1)
	l.appendBytes.Add(uint64(len(payload)))

	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	l.mu.Unlock()

	if waitDurable {
		if err := l.commitShared(lsn); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// commitShared blocks until the record at lsn is on stable storage,
// sharing fsyncs with concurrent appenders: the first waiter whose LSN is
// not yet durable becomes the leader, lingers Options.Linger so more
// appends can pile in, and issues one fsync covering everything buffered
// so far; the rest park as followers until a leader's fsync covers them.
// The fsync itself runs outside l.mu, so followers append (and form the
// next batch) while it is in flight.
func (l *Log) commitShared(lsn uint64) error {
	g := &l.gc
	follower := false
	g.mu.Lock()
	for {
		if l.durableLSN.Load() > lsn {
			g.mu.Unlock()
			if follower {
				l.batched.Add(1)
			}
			return nil
		}
		if err := l.failed(); err != nil {
			g.mu.Unlock()
			return err
		}
		if !g.leading {
			g.leading = true
			g.mu.Unlock()
			l.linger()
			err := l.fsyncShared()
			g.mu.Lock()
			g.leading = false
			g.cond.Broadcast()
			if err != nil {
				g.mu.Unlock()
				return err
			}
			continue
		}
		follower = true
		g.cond.Wait()
	}
}

// linger gives concurrently-running appenders a chance to join the
// leader's fsync. time.Sleep is useless at this scale — kernel timer
// granularity rounds sub-millisecond sleeps up to ~1ms, several times
// the fsync being amortized — so the leader instead yields the
// processor and keeps yielding while new appends are still arriving,
// bounded by the Linger budget. A yield puts the leader behind every
// runnable appender in the scheduler queue, so one pass typically
// collects the whole cohort; the arrival check stops the linger as
// soon as the pipeline runs dry.
func (l *Log) linger() {
	if l.opts.Linger <= 0 {
		return
	}
	deadline := time.Now().Add(l.opts.Linger)
	last := l.appends.Load()
	for {
		runtime.Gosched()
		now := l.appends.Load()
		if now == last || !time.Now().Before(deadline) {
			return
		}
		last = now
	}
}

// fsyncShared performs one leader round: flush the buffer under l.mu,
// fsync the captured file handle outside it, then advance the durable
// watermark. Only the group-commit leader calls it.
func (l *Log) fsyncShared() error {
	l.mu.Lock()
	if l.syncErr != nil {
		err := l.failedLocked()
		l.mu.Unlock()
		return err
	}
	if !l.dirty {
		// A rotation, explicit Sync, or Close got here first and synced
		// everything buffered; the watermark may lag it, so catch it up.
		if l.durableLSN.Load() < l.nextLSN {
			l.durableLSN.Store(l.nextLSN)
		}
		l.mu.Unlock()
		return nil
	}
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: closed")
	}
	if err := l.bw.Flush(); err != nil {
		l.syncErr = err
		l.mu.Unlock()
		return fmt.Errorf("wal: %w", err)
	}
	for l.syncBusy {
		l.syncIdle.Wait()
	}
	end := l.nextLSN
	f := l.f
	l.syncBusy = true
	l.mu.Unlock()

	serr := fsyncFile(f)

	l.mu.Lock()
	l.syncBusy = false
	l.syncIdle.Broadcast()
	if serr != nil {
		l.syncErr = serr
		l.mu.Unlock()
		return fmt.Errorf("wal: %w", serr)
	}
	l.syncs.Add(1)
	if l.durableLSN.Load() < end {
		l.durableLSN.Store(end)
	}
	if l.nextLSN == end {
		// Nothing was appended while the fsync ran; the buffer is clean.
		// (Anything newer set dirty again and stays dirty until its own
		// fsync covers it.)
		l.dirty = false
	}
	l.mu.Unlock()
	return nil
}

// WaitDurable blocks until the record at lsn is on stable storage,
// joining (or leading) the shared group commit. Callers that must not
// hold their own locks across a fsync append with AppendNoSync, release,
// then wait here — that is how the durable layer keeps concurrent
// appenders batchable under SyncAlways.
func (l *Log) WaitDurable(lsn uint64) error {
	return l.commitShared(lsn)
}

// Sync flushes buffered appends and fsyncs the active segment. It is a
// durability barrier under every policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	return l.syncLocked()
}

// failed reports the latched sync failure, if any.
func (l *Log) failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.syncErr == nil {
		return nil
	}
	return l.failedLocked()
}

// failedLocked wraps the latched failure. A failed fsync is never
// retried: the kernel may already have discarded the dirty pages, so a
// "successful" retry would lie about data that never reached disk.
func (l *Log) failedLocked() error {
	return fmt.Errorf("wal: log failed, all writes refused: %w", l.syncErr)
}

func (l *Log) syncLocked() error {
	if l.syncErr != nil {
		return l.failedLocked()
	}
	for l.syncBusy {
		l.syncIdle.Wait()
	}
	if !l.dirty {
		return nil
	}
	if err := l.bw.Flush(); err != nil {
		l.syncErr = err
		return fmt.Errorf("wal: %w", err)
	}
	if err := fsyncFile(l.f); err != nil {
		l.syncErr = err
		return fmt.Errorf("wal: %w", err)
	}
	l.dirty = false
	if l.durableLSN.Load() < l.nextLSN {
		l.durableLSN.Store(l.nextLSN)
	}
	l.syncs.Add(1)
	return nil
}

func (l *Log) rotateLocked() error {
	cur := l.f
	if err := l.syncLocked(); err != nil {
		return err
	}
	if l.f != cur {
		// syncLocked's wait for an in-flight shared fsync releases l.mu;
		// another appender can rotate in that window. Its rotation already
		// did our work.
		return nil
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.rotations.Add(1)
	return l.newSegment()
}

// Prune deletes every segment whose records all have LSN < keepFrom. The
// active segment is never deleted. Safe to call concurrently with Append.
func (l *Log) Prune(keepFrom uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	// Rebuild into a fresh slice: building into l.segments[:0] would let
	// an os.Remove failure abandon the loop after the aliased append had
	// already overwritten prefix entries, leaving l.segments shifted.
	kept := make([]segment, 0, len(l.segments))
	for i, seg := range l.segments {
		// A segment is disposable if the NEXT segment starts at or below
		// keepFrom (then every record here is < keepFrom) and it is not
		// the active segment.
		if i+1 < len(l.segments) && l.segments[i+1].first <= keepFrom {
			if err := os.Remove(seg.path); err != nil {
				// Keep the undeleted segment and everything after it; only
				// the successfully removed prefix leaves the slice.
				l.segments = append(kept, l.segments[i:]...)
				return fmt.Errorf("wal: prune: %w", err)
			}
			l.prunes.Add(1)
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = kept
	return nil
}

// Rotate forces the log onto a fresh segment so the next Append is the
// new segment's first record; a no-op when the active segment is empty.
// The durable layer rotates before emitting a checkpoint so that Prune
// can then drop every segment before it.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	if l.segSize <= headerSize {
		return nil
	}
	return l.rotateLocked()
}

// groupCommit is the SyncInterval background fsync loop. A sync failure
// here is latched by syncLocked, so the next Append or Sync — the calls
// whose durability the failed fsync betrayed — report it; a background
// fsync error must never stay invisible.
func (l *Log) groupCommit() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.syncErr == nil {
				l.syncLocked() // on failure the latch surfaces it from Append/Sync
			}
			l.mu.Unlock()
		}
	}
}

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	return err
}

// NextLSN returns the LSN the next Append will be assigned.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Metrics returns a snapshot of the log's counters.
func (l *Log) Metrics() Metrics {
	l.mu.Lock()
	torn, recs, rbytes, from, rt := l.tornTruncations, l.recoveredRecords, l.recoveredBytes, l.recoveredFrom, l.recoveryTime
	l.mu.Unlock()
	return Metrics{
		Appends:          l.appends.Load(),
		AppendBytes:      l.appendBytes.Load(),
		Syncs:            l.syncs.Load(),
		Batched:          l.batched.Load(),
		Rotations:        l.rotations.Load(),
		Prunes:           l.prunes.Load(),
		TornTruncations:  torn,
		RecoveredRecords: recs,
		RecoveredBytes:   rbytes,
		RecoveredFrom:    from,
		RecoveryTime:     rt,
	}
}
