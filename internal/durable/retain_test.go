package durable

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

// Tests of the byte-retaining fold: what the shadow holds, what it costs
// per append, and where a payload that no longer decodes is reported.

// shadowBracket renders rs as the checkpoint bracket it would write —
// a canonical serialisation of everything the fold holds.
func shadowBracket(t *testing.T, rs *recoverState) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := rs.emitCheckpoint(1, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func inboxKeys(rs *recoverState) []string {
	out := make([]string, len(rs.inbox))
	for i, im := range rs.inbox {
		out[i] = fmt.Sprintf("%d/%d consumed=%v", im.from, im.seq, im.consumed)
	}
	return out
}

// TestShadowEqualsAdoptedBracket: after N checkpoints (and a tail) the
// live shadow must be exactly the state a recovery folding bracket+tail
// from disk holds — in particular its inbox must not keep the frames the
// brackets dropped. The old shadow kept every frame ever delivered.
func TestShadowEqualsAdoptedBracket(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStoreCkpt(t, dir, 1<<30)
	drivePre(t, s)
	// One frame consumed by a journalled receive that a rollback could
	// still release: the brackets must keep carrying it.
	held := msg.Data(remotePID(2), localPID(2), ids.IntervalID{}, nil, "held")
	if err := s.Delivered(1, 5, encode(t, held)); err != nil {
		t.Fatalf("Delivered: %v", err)
	}
	held.SrcNode, held.SrcSeq = 1, 5
	s.JournalAppend(localPID(2), &journal.Entry{Kind: journal.KindRecv, Msg: held})
	next := uint64(10)
	for round := 0; round < 3; round++ {
		// 50 frames delivered and retired without a journal entry: dead
		// weight the moment they are consumed.
		for i := 0; i < 50; i++ {
			m := msg.Data(remotePID(1), localPID(1), ids.IntervalID{}, nil, int(next))
			if err := s.Delivered(1, next, encode(t, m)); err != nil {
				t.Fatalf("Delivered: %v", err)
			}
			s.Consumed(1, next)
			next++
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	driveTail(t, s)

	s.mu.Lock()
	shadowInbox, shadowRecs := inboxKeys(s.shadow), shadowBracket(t, s.shadow)
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// drivePre leaves (1,3) unconsumed (its journal was compacted, so the
	// receive of (1,2) is permanent); driveTail delivers (1,4). Nothing
	// else may survive three brackets.
	if want := []string{"1/3 consumed=false", "1/5 consumed=true", "1/4 consumed=false"}; !reflect.DeepEqual(shadowInbox, want) {
		t.Fatalf("shadow inbox = %v, want %v", shadowInbox, want)
	}

	disk, _, err := foldDir(dir, testSelf)
	if err != nil {
		t.Fatal(err)
	}
	if !disk.adopted {
		t.Fatal("disk fold adopted no bracket")
	}
	if got := inboxKeys(disk); !reflect.DeepEqual(got, shadowInbox) {
		t.Fatalf("disk fold inbox = %v, shadow = %v", got, shadowInbox)
	}
	diskRecs := shadowBracket(t, disk)
	if len(diskRecs) != len(shadowRecs) {
		t.Fatalf("disk fold re-emits %d records, shadow %d", len(diskRecs), len(shadowRecs))
	}
	for i := range diskRecs {
		if !bytes.Equal(diskRecs[i], shadowRecs[i]) {
			t.Fatalf("record %d: disk fold emits %x, shadow %x", i, diskRecs[i], shadowRecs[i])
		}
	}
}

func requestEntry() (ids.PID, *journal.Entry) {
	pid := localPID(5)
	m := msg.Data(remotePID(6), pid, ids.IntervalID{}, []ids.AID{ids.AID(remotePID(7))},
		rpc.Request{ReplyTo: remotePID(8), Method: rpc.MethodPrint, Seq: 3})
	m.SrcNode, m.SrcSeq = 1, 9
	return pid, &journal.Entry{Kind: journal.KindRecv, Msg: m}
}

func openAppendStore(tb testing.TB, ckptEvery int) *Store {
	tb.Helper()
	wire.RegisterPayload(rpc.Request{})
	s, _, err := OpenOptions(Options{Dir: tb.TempDir(), NodeID: testSelf, Policy: wal.SyncNone, CheckpointEvery: ckptEvery})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// TestAppendPathDoesNotDecode: with the shadow on, journalling an
// rpc.Request costs the encode plus a constant handful of allocations
// for the retained copy — not a gob decoder (≈ 200 allocations, with its
// type-engine compile, when the shadow decoded what it had just encoded).
func TestAppendPathDoesNotDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pid, e := requestEntry()
	measure := func(ckptEvery int) float64 {
		s := openAppendStore(t, ckptEvery)
		return testing.AllocsPerRun(500, func() { s.JournalAppend(pid, e) })
	}
	plain, shadowed := measure(0), measure(1<<30)
	t.Logf("allocs per JournalAppend: shadow off %.1f, on %.1f", plain, shadowed)
	if shadowed > plain+4 {
		t.Fatalf("shadow fold adds %.1f allocations per append (off %.1f, on %.1f): it is decoding", shadowed-plain, plain, shadowed)
	}
}

// BenchmarkStoreJournalAppend prices one journalled receive with the
// checkpoint shadow off and on; the two should be within a memcpy of
// each other.
func BenchmarkStoreJournalAppend(b *testing.B) {
	pid, e := requestEntry()
	for _, bc := range []struct {
		name      string
		ckptEvery int
	}{{"shadow=off", 0}, {"shadow=on", 4096}} {
		b.Run(bc.name, func(b *testing.B) {
			s := openAppendStore(b, bc.ckptEvery)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.JournalAppend(pid, e)
			}
		})
	}
}

// appendUndecodable journals, for pid, an entry whose note is not a gob
// stream — what a record written by a binary with a payload type this
// one never registered looks like to the decoder.
func appendUndecodable(t *testing.T, s *Store, pid ids.PID) {
	t.Helper()
	if err := s.append(func(b []byte) ([]byte, error) {
		b[0] = recJournal
		b = appendUv(b, uint64(pid))
		b = appendUv(b, uint64(journal.KindNote))
		b = appendUv(b, 0) // aid
		b = append(b, entHasNote)
		b = appendIID(b, ids.IntervalID{})
		b = appendUv(b, 0) // child
		return append(b, "not a gob stream"...), nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUndecodablePayloadSurfacesAtOpen: the fold retains a payload it
// cannot decode — the live shadow keeps checkpointing and re-emits it
// verbatim — and the error comes from the OpenOptions / ReadExtract
// that must materialise it, naming the record's LSN and the process.
// It is never a silent skip; a process that does not survive (poisoned)
// takes its undecodable entries with it. In ReadExtract the error fails
// process extraction only: a survivor still adopts the node's AID shard
// and requeues its unconsumed frames.
func TestUndecodablePayloadSurfacesAtOpen(t *testing.T) {
	for _, poisoned := range []bool{false, true} {
		t.Run(fmt.Sprintf("poisoned=%v", poisoned), func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openStoreCkpt(t, dir, 1<<30)
			pid := localPID(1)
			s.IntervalOpen(pid, interval.NewRecord(ids.IntervalID{Proc: pid, Seq: 0, Epoch: 1}, interval.Root, 0))
			s.JournalAppend(pid, &journal.Entry{Kind: journal.KindNote, Note: "fine"})
			appendUndecodable(t, s, pid)
			aid := ids.AID(remotePID(9))
			s.AIDExport(aid, []byte("machine"))
			if err := s.Delivered(1, 1, encode(t, msg.Data(remotePID(1), localPID(2), ids.IntervalID{}, nil, "frame"))); err != nil {
				t.Fatal(err)
			}
			if poisoned {
				s.poison(pid, "test")
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint with an undecodable entry retained: %v", err)
			}
			if s.Stats().CheckpointsLost {
				t.Fatal("an undecodable payload disabled checkpointing")
			}
			begin := s.LastCheckpointLSN()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			ex, err := ReadExtract(dir, testSelf)
			if err != nil {
				t.Fatalf("ReadExtract: %v", err)
			}
			if string(ex.AIDExports[aid]) != "machine" || len(ex.Unconsumed) != 1 || ex.Unconsumed[0].Payload != "frame" {
				t.Fatalf("extract lost the shard or the frame: exports %v, unconsumed %v", ex.AIDExports, ex.Unconsumed)
			}
			exErr := ex.ProcErr
			s2, _, openErr := OpenOptions(Options{Dir: dir, NodeID: testSelf, Policy: wal.SyncAlways})
			if openErr == nil {
				s2.Close()
			}
			if poisoned {
				if exErr != nil || openErr != nil {
					t.Fatalf("poisoned process's entries were decoded: extract %v, open %v", exErr, openErr)
				}
				return
			}
			if ex.Procs != nil || ex.Resend != nil {
				t.Fatalf("extract kept processes despite ProcErr: %v", ex.Procs)
			}
			for what, err := range map[string]error{"ReadExtract": exErr, "OpenOptions": openErr} {
				if err == nil {
					t.Fatalf("%s swallowed an undecodable journal entry", what)
				}
				// The bracket re-emitted the entry; its record there is the
				// one on disk now.
				if !strings.Contains(err.Error(), pid.String()) || !strings.Contains(err.Error(), "journal entry 1 (lsn ") {
					t.Errorf("%s error does not name the process and record: %v", what, err)
				}
				var lsn uint64
				if i := strings.Index(err.Error(), "(lsn "); i < 0 {
					t.Errorf("%s error carries no LSN: %v", what, err)
				} else if _, scanErr := fmt.Sscanf(err.Error()[i:], "(lsn %d)", &lsn); scanErr != nil || lsn <= begin {
					t.Errorf("%s error LSN %d is not inside the bracket begun at %d: %v", what, lsn, begin, err)
				}
			}
		})
	}
}

// TestMalformedRecordDisablesCheckpoints: the one case that still stops
// the shadow — a record the fold cannot even parse, which only this
// package's own encoders could write — is visible in Stats(), not just
// in a trace event.
func TestMalformedRecordDisablesCheckpoints(t *testing.T) {
	s, _ := openStoreCkpt(t, t.TempDir(), 1<<30)
	defer s.Close()
	if s.Stats().CheckpointsLost {
		t.Fatal("fresh store reports checkpoints lost")
	}
	if err := s.append(func(b []byte) ([]byte, error) {
		b[0] = recJournal
		return append(b, 0x80), nil // a pid uvarint that never ends
	}); err != nil {
		t.Fatal(err)
	}
	if !s.Stats().CheckpointsLost {
		t.Fatal("Stats() hides that the shadow fold failed")
	}
	if err := s.Checkpoint(); !errors.Is(err, errCheckpointDisabled) {
		t.Fatalf("Checkpoint after a failed fold = %v, want errCheckpointDisabled", err)
	}
	if plain := openAppendStore(t, 0); plain.Stats().CheckpointsLost {
		t.Fatal("a store opened without checkpointing reports them lost")
	}
}

// FuzzApply feeds arbitrary bytes to the fold as one WAL record: apply,
// the materialisation in finish, the bracket emission and waldump's
// Describe parse on-disk input and must reject garbage with an error,
// never a panic or an unbounded allocation. Seeded with one record of
// every kind a store writes.
func FuzzApply(f *testing.F) {
	wire.RegisterPayload(rpc.Request{})
	dir := f.TempDir()
	s, _, err := OpenOptions(Options{Dir: dir, NodeID: testSelf, Policy: wal.SyncNone, CheckpointEvery: 1 << 30})
	if err != nil {
		f.Fatal(err)
	}
	pid, e := requestEntry()
	frame, err := wire.EncodeMessage(e.Msg)
	if err != nil {
		f.Fatal(err)
	}
	s.FrameQueued(1, 1, frame)
	s.AckAdvanced(1, 1)
	if err := s.Delivered(1, 9, frame); err != nil {
		f.Fatal(err)
	}
	s.Consumed(1, 8)
	root := interval.NewRecord(ids.IntervalID{Proc: pid, Seq: 0, Epoch: 1}, interval.Root, 0)
	s.IntervalOpen(pid, root)
	spec := interval.NewRecord(ids.IntervalID{Proc: pid, Seq: 1, Epoch: 2}, interval.Guessed, 0)
	spec.IDO.Add(ids.AID(remotePID(7)))
	s.IntervalOpen(pid, spec)
	s.JournalAppend(pid, e)
	s.JournalAppend(pid, &journal.Entry{Kind: journal.KindNote, Note: int64(4)})
	s.IntervalState(pid, spec)
	s.IntervalFinalize(pid, spec.ID)
	s.Rollback(pid, spec.ID)
	s.DeadAID(pid, ids.AID(remotePID(7)))
	if err := s.Compact(pid, root.ID, int(42)); err != nil {
		f.Fatal(err)
	}
	s.poison(localPID(6), "seed")
	s.AutoDenied(ids.AID(remotePID(20)))
	s.ViewChanged(5, []int{0, 1})
	if err := s.ProcExport(localPID(7), &core.Restored{
		Intervals: []core.RestoredInterval{{ID: ids.IntervalID{Proc: localPID(7), Epoch: 1}, Definite: true}},
		Entries:   []*journal.Entry{{Kind: journal.KindNote, Note: "n"}},
		Base:      int(3), HasBase: true, NextSeq: 1,
	}); err != nil {
		f.Fatal(err)
	}
	if err := s.TransplantRecorded(1, remotePID(1), localPID(7)); err != nil {
		f.Fatal(err)
	}
	s.WatermarkAdvanced(2, map[int]uint32{0: 3, 1: 4})
	s.AIDExport(ids.AID(localPID(8)), []byte("blob"))
	seen := map[byte]bool{}
	seed := func() {
		if err := s.Log().Sync(); err != nil {
			f.Fatal(err)
		}
		if err := wal.Scan(dir, func(_ uint64, payload []byte) error {
			if !seen[payload[0]] {
				seen[payload[0]] = true
				f.Add(append([]byte(nil), payload...))
			}
			return nil
		}, nil); err != nil {
			f.Fatal(err)
		}
	}
	seed() // the history, before the bracket prunes it
	if err := s.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	seed() // the bracket's own kinds
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = Describe(data)
		rs := newRecoverState(testSelf)
		if err := rs.apply(1, data); err != nil {
			return
		}
		shadowBracket(t, rs)
		_, _ = rs.finish()
	})
}
