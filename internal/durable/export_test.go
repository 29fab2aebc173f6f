package durable

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

// TestAIDExportRoundTrip pins the recAIDExport fold: last write per AID
// wins, an empty blob tombstones, and both the restart path (Recovered)
// and the forensic corpse-read path (ReadExtract) see the same map.
func TestAIDExportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := openStore(t, dir)
	if len(rec.AIDExports) != 0 {
		t.Fatalf("fresh store recovered %d exports", len(rec.AIDExports))
	}
	a, b, c := ids.AID(localPID(10)), ids.AID(localPID(11)), ids.AID(remotePID(12))
	s.AIDExport(a, []byte("a-v1"))
	s.AIDExport(b, []byte("b-v1"))
	s.AIDExport(a, []byte("a-v2")) // supersedes a-v1
	s.AIDExport(c, []byte("c-v1"))
	s.AIDExport(b, nil) // shipped away: tombstone
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	want := map[ids.AID][]byte{a: []byte("a-v2"), c: []byte("c-v1")}
	check := func(name string, got map[ids.AID][]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d exports, want %d (%v)", name, len(got), len(want), got)
		}
		for aid, blob := range want {
			if !bytes.Equal(got[aid], blob) {
				t.Fatalf("%s: export[%v] = %q, want %q", name, aid, got[aid], blob)
			}
		}
	}

	// Forensic path: the successor reads the corpse's WAL without
	// touching it.
	ex, err := ReadExtract(dir, testSelf)
	if err != nil {
		t.Fatalf("ReadExtract: %v", err)
	}
	check("ReadExtract", ex.AIDExports)

	// Restart path: the node's own recovery folds the same map.
	s2, rec2 := openStore(t, dir)
	check("Recovered", rec2.AIDExports)
	s2.Close()

	// Reading a corpse must not modify it: a second forensic scan and a
	// third recovery still agree.
	ex2, err := ReadExtract(dir, testSelf)
	if err != nil {
		t.Fatalf("ReadExtract (second): %v", err)
	}
	check("ReadExtract second scan", ex2.AIDExports)
}

// TestAIDExportSurvivesCheckpoint pins the re-emission: a checkpoint
// prunes the records that wrote the exports, so the bracket must carry
// them itself.
func TestAIDExportSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenOptions(Options{
		Dir: dir, NodeID: testSelf, Policy: wal.SyncAlways, CheckpointEvery: 1 << 20,
	})
	if err != nil {
		t.Fatalf("OpenOptions: %v", err)
	}
	a, gone := ids.AID(localPID(20)), ids.AID(localPID(21))
	s.AIDExport(a, []byte("pre-ckpt"))
	s.AIDExport(gone, []byte("doomed"))
	s.AIDExport(gone, nil)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.AIDExport(a, []byte("post-ckpt")) // tail record after the bracket
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	for _, path := range []string{"forensic", "recover"} {
		var got map[ids.AID][]byte
		switch path {
		case "forensic":
			ex, err := ReadExtract(dir, testSelf)
			if err != nil {
				t.Fatalf("ReadExtract: %v", err)
			}
			got = ex.AIDExports
		case "recover":
			s2, rec := openStore(t, dir)
			got = rec.AIDExports
			s2.Close()
		}
		if len(got) != 1 || !bytes.Equal(got[a], []byte("post-ckpt")) {
			t.Fatalf("%s after checkpoint: %v, want {%v: post-ckpt}", path, got, a)
		}
	}
}

// TestReadOrphanFrames pins the forensic delivered-but-unconsumed fold:
// frames the corpse acknowledged and retired (Consumed) are elided,
// the rest come back decoded, in arrival order, SrcNode/SrcSeq stamped.
func TestReadOrphanFrames(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	frame := func(seq uint32) []byte {
		b, err := wire.EncodeMessage(&msg.Message{
			Kind: msg.KindGuess, From: remotePID(1), To: localPID(2),
			IID: ids.IntervalID{Proc: remotePID(1), Seq: seq, Epoch: 1},
			AID: ids.AID(remotePID(30 + uint64(seq))),
		})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return b
	}
	if err := s.Delivered(2, 1, frame(1)); err != nil {
		t.Fatalf("Delivered: %v", err)
	}
	if err := s.Delivered(2, 2, frame(2)); err != nil {
		t.Fatalf("Delivered: %v", err)
	}
	if err := s.Delivered(3, 1, frame(3)); err != nil {
		t.Fatalf("Delivered: %v", err)
	}
	s.Consumed(2, 1) // applied and retired before the crash
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ex, err := ReadExtract(dir, testSelf)
	if err != nil {
		t.Fatalf("ReadExtract: %v", err)
	}
	orphans := ex.Unconsumed
	if len(orphans) != 2 {
		t.Fatalf("%d orphans, want 2: %v", len(orphans), orphans)
	}
	if orphans[0].SrcNode != 2 || orphans[0].SrcSeq != 2 || orphans[0].IID.Seq != 2 {
		t.Fatalf("first orphan = src %d/%d iid seq %d, want 2/2 seq 2",
			orphans[0].SrcNode, orphans[0].SrcSeq, orphans[0].IID.Seq)
	}
	if orphans[1].SrcNode != 3 || orphans[1].SrcSeq != 1 || orphans[1].IID.Seq != 3 {
		t.Fatalf("second orphan = src %d/%d iid seq %d, want 3/1 seq 3",
			orphans[1].SrcNode, orphans[1].SrcSeq, orphans[1].IID.Seq)
	}
}

// TestCorpseReadStopsAtDamage pins that a survivor reads a dead
// member's WAL exactly as the member's own restart would: three hosted
// machines exported, the middle record's payload damaged. Open
// truncates at the damage and keeps only the first export, so
// ReadExtract must keep only it too, and name where it stopped, instead
// of skipping the damaged record and folding the one after it.
func TestCorpseReadStopsAtDamage(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	aids := []ids.AID{ids.AID(localPID(10)), ids.AID(localPID(11)), ids.AID(localPID(12))}
	for _, a := range aids {
		s.AIDExport(a, []byte("machine"))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg, frames := walFrames(t, dir)
	var exports []walFrame
	for _, f := range frames {
		if f.payload[0] == recAIDExport {
			exports = append(exports, f)
		}
	}
	if len(exports) != 3 {
		t.Fatalf("%d export records in the WAL, want 3", len(exports))
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[exports[1].end-1] ^= 0xFF // the middle export's last payload byte
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ex, err := ReadExtract(dir, testSelf)
	if err != nil {
		t.Fatalf("ReadExtract: %v", err)
	}
	if !strings.Contains(ex.StoppedAt, "crc mismatch") {
		t.Errorf("StoppedAt = %q, want the crc mismatch named", ex.StoppedAt)
	}
	// The restart reads a copy: Open truncates what it cannot read.
	cp := filepath.Join(t.TempDir(), "copy")
	copyDir(t, dir, cp)
	restart, rec := openStore(t, cp)
	restart.Close()
	want := map[ids.AID][]byte{aids[0]: []byte("machine")}
	if !reflect.DeepEqual(rec.AIDExports, want) {
		t.Fatalf("restart exports = %v, want only %v", rec.AIDExports, aids[0])
	}
	if !reflect.DeepEqual(ex.AIDExports, want) {
		t.Errorf("ReadExtract exports = %v, want the restart's %v", ex.AIDExports, want)
	}
}

// walFrame is one record of a WAL segment: its payload and the byte
// offset just past its frame.
type walFrame struct {
	payload []byte
	end     int64
}

// walFrames parses the single segment of the WAL in dir.
func walFrames(t *testing.T, dir string) (string, []walFrame) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one WAL segment in %s, got %v (%v)", dir, segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var out []walFrame
	for off := int64(16); off+8 <= int64(len(data)); { // segment header, then u32 length | u32 crc | payload
		end := off + 8 + int64(binary.BigEndian.Uint32(data[off:]))
		out = append(out, walFrame{payload: data[off+8 : end], end: end})
		off = end
	}
	return segs[0], out
}
