package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/durable"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

// capture runs run() as node 1 with stdout captured.
func capture(t *testing.T, dir string) (string, error) {
	t.Helper()
	return captureNode(t, dir, 1)
}

func captureNode(t *testing.T, dir string, node int) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(dir, node, true)
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	return string(out), runErr
}

// runCapture is capture for runs that must succeed.
func runCapture(t *testing.T, dir string) string {
	t.Helper()
	out, err := capture(t, dir)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	return out
}

// TestCheckpointRecordsClassified: a WAL holding a completed checkpoint
// bracket dumps with the ckpt-* record names, a checkpoint summary line,
// and a recovery line that reports the snapshot-bounded replay.
func TestCheckpointRecordsClassified(t *testing.T) {
	dir := t.TempDir()
	s, _, err := durable.OpenOptions(durable.Options{
		Dir: dir, NodeID: 1, Policy: wal.SyncNone, CheckpointEvery: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.AutoDenied(ids.AID(100 + i))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.AutoDenied(ids.AID(200))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	out := runCapture(t, dir)
	for _, want := range []string{"ckpt-begin", "ckpt-end", "auto-deny"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in dump:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "checkpoints: 1 begun, 1 completed, 0 aborted") {
		t.Fatalf("checkpoint summary missing:\n%s", out)
	}
	// The recovery pass must report a snapshot-bounded replay: one tail
	// record after the adopted checkpoint.
	if !strings.Contains(out, "tail=1 ckpt") {
		t.Fatalf("recovery line not checkpoint-bounded:\n%s", out)
	}
}

// TestWatermarkRecordsDecoded: stability frontier advances append
// recWatermark records; waldump names them, decodes view epoch and
// frontier in verbose mode, re-finds the record a checkpoint re-emits,
// and the recovery pass reports the restored frontier (per-node maxima
// of everything on disk).
func TestWatermarkRecordsDecoded(t *testing.T) {
	dir := t.TempDir()
	s, _, err := durable.OpenOptions(durable.Options{
		Dir: dir, NodeID: 1, Policy: wal.SyncNone, CheckpointEvery: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.WatermarkAdvanced(1, map[int]uint32{0: 12, 1: 9})
	s.WatermarkAdvanced(2, map[int]uint32{0: 41, 1: 17})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	out := runCapture(t, dir)
	// The checkpoint re-emits the folded frontier inside its bracket; the
	// pre-checkpoint records were pruned with their segment.
	for _, want := range []string{
		"watermark",
		"e2 0:41,1:17",
		"  watermark: view e2 frontier 0:41,1:17",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in dump:\n%s", want, out)
		}
	}
	if strings.Contains(out, "0:12") {
		t.Fatalf("pre-checkpoint frontier resurfaced:\n%s", out)
	}
}

// TestCorruptRecordReportedAndReplaySkipped: a flipped payload byte
// mid-log makes waldump print the damaged record's segment and offset,
// keep counting the records after it, and skip the destructive recovery
// replay so the evidence survives inspection.
func TestCorruptRecordReportedAndReplaySkipped(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	// Three tagged records: peer-send, auto-deny, journal.
	payloads := [][]byte{{1, 0xAA, 0xBB}, {13, 0x01}, {5, 0xCC, 0xDD, 0xEE}}
	for _, p := range payloads {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte of the middle record (lsn 1). Layout: 16B segment
	// header, then frames of 8B header + payload.
	segs, err := os.ReadDir(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	seg := dir + "/" + segs[0].Name()
	off := int64(16 + 8 + len(payloads[0]) + 8) // lsn 1's payload
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := runCapture(t, dir)
	// The reported offset is the damaged frame's start: 16B header plus
	// lsn 0's frame (8B + 3B payload) = 27.
	if !strings.Contains(out, "CORRUPT "+seg+" @27:") || !strings.Contains(out, "crc mismatch on lsn 1") {
		t.Fatalf("corrupt record not located:\n%s", out)
	}
	if !strings.Contains(out, "2 records, last LSN 2, 1 corrupt") {
		t.Fatalf("records after the damage were lost:\n%s", out)
	}
	if !strings.Contains(out, "peer-send") || !strings.Contains(out, "journal") {
		t.Fatalf("surviving records not classified:\n%s", out)
	}
	if !strings.Contains(out, "skipping recovery replay") {
		t.Fatalf("destructive replay not skipped:\n%s", out)
	}
	// Forensic promise: the WAL is byte-for-byte untouched afterwards.
	if info, err := os.Stat(seg); err != nil || info.Size() != 16+3*8+int64(len(payloads[0])+len(payloads[1])+len(payloads[2])) {
		t.Fatalf("segment size changed: %v %v", info, err)
	}
}

// TestRetainedRecordsDecodedOnDemand: the records whose bodies the fold
// keeps as bytes — journal entries, frames, the adoption-time
// recProcIndex — are opened by -v through durable's own materialisers,
// and one that no longer decodes is reported on its line instead of
// aborting the forensic pass.
func TestRetainedRecordsDecodedOnDemand(t *testing.T) {
	dir := t.TempDir()
	s, _, err := durable.OpenOptions(durable.Options{Dir: dir, NodeID: 1, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	pid := wire.PIDBase(1) + 1
	m := msg.Data(wire.PIDBase(0)+2, pid, ids.IntervalID{}, nil, rpc.Request{Method: rpc.MethodPrint, Seq: 4})
	m.SrcNode, m.SrcSeq = 0, 7
	entry := &journal.Entry{Kind: journal.KindRecv, Msg: m}
	s.JournalAppend(pid, entry)
	if err := s.ProcExport(pid+100, &core.Restored{
		Intervals: []core.RestoredInterval{{ID: ids.IntervalID{Proc: pid, Epoch: 1}, Definite: true}},
		Entries:   []*journal.Entry{entry, {Kind: journal.KindNote, Note: "n"}},
		NextSeq:   1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A journal record whose entry is cut short, appended behind the
	// store's back.
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte{5, 0x09, 0x02}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	out, runErr := capture(t, dir)
	for _, want := range []string{
		"recv Data " + (wire.PIDBase(0) + 2).String() + "→" + pid.String() + " payload=rpc.Request src=0/7",
		(pid + 100).String() + " intervals=1 entries=2 dead=0 base=false nextseq=1",
		"(undecodable:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in dump:\n%s", want, out)
		}
	}
	// The recovery pass is hoped's real boot path: it refuses the record
	// the forensic pass merely annotated.
	if runErr == nil || !strings.Contains(runErr.Error(), "recovery replay") {
		t.Errorf("recovery replay accepted a malformed journal record: %v", runErr)
	}
}

// TestMixedCodecWALDump: a WAL recorded when payloads were gob streams,
// with a journal record appended in the binary payload form, dumps both
// generations through durable.Describe — the forensic tool reads what an
// upgraded node's disk actually holds.
func TestMixedCodecWALDump(t *testing.T) {
	const recorded = "../../internal/durable/testdata/differential/client-mid"
	dir := t.TempDir()
	segs, err := os.ReadDir(recorded)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs { // the dump's recovery pass truncates: never in testdata
		data, err := os.ReadFile(filepath.Join(recorded, seg.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, seg.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, _, err := durable.OpenOptions(durable.Options{Dir: dir, NodeID: 0, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	worker, server := wire.PIDBase(0)+11, wire.PIDBase(1)+1
	m := msg.Data(server, worker, ids.IntervalID{}, nil, rpc.Response{Seq: 4, Result: -1})
	m.SrcNode, m.SrcSeq = 1, 100000
	if enc, err := wire.EncodeMessage(m); err != nil || len(enc) > 32 {
		t.Fatalf("the appended message is not in the binary payload form: %d bytes, err %v", len(enc), err)
	}
	s.JournalAppend(worker, &journal.Entry{Kind: journal.KindRecv, Msg: m})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := captureNode(t, dir, 0)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"recv Data " + server.String() + "→" + worker.String() + " payload=rpc.Response src=1/100000", // appended, binary
		"payload=rpc.Request", // recorded, gob
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in dump:\n%s", want, out)
		}
	}
	if strings.Contains(out, "undecodable") || strings.Contains(out, "malformed") {
		t.Errorf("a record of one generation no longer reads:\n%s", out)
	}
}
