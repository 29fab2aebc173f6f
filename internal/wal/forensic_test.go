package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// segmentFiles returns the segment paths of dir in LSN order.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out
}

// payloadOffset walks a segment file's frames and returns the byte
// offset of the idx'th record's payload within it.
func payloadOffset(t *testing.T, path string, idx int) int64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(headerSize)
	for i := 0; ; i++ {
		size := int64(binary.BigEndian.Uint32(b[off : off+4]))
		if i == idx {
			return off + frameSize
		}
		off += frameSize + size
	}
}

// scanAll runs the forensic Scan and collects its callbacks.
func scanAll(t *testing.T, dir string) (lsns []uint64, corrupt []string) {
	t.Helper()
	err := Scan(dir,
		func(lsn uint64, payload []byte) error {
			if !bytes.Equal(payload, testPayload(int(lsn), 60)) {
				t.Fatalf("record %d payload mismatch", lsn)
			}
			lsns = append(lsns, lsn)
			return nil
		},
		func(seg string, off int64, reason string) error {
			corrupt = append(corrupt, reason)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return lsns, corrupt
}

// TestScanSkipsCorruptRecord flips one payload byte mid-log and asserts
// the forensic scan reports that record's segment offset and keeps
// going: every other record — including those after the damage and in
// later segments — is still delivered, and the files are not modified
// (Open's recovery scan would have truncated at the damage).
func TestScanSkipsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir, SegmentBytes: 512, Policy: SyncNone})
	const n = 40
	appendN(t, l, n, 60)
	if l.Segments() < 2 {
		t.Fatalf("expected rotation, got %d segments", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one byte of the third record in the first segment.
	seg := segmentFiles(t, dir)[0]
	off := payloadOffset(t, seg, 2)
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := f.ReadAt(one[:], off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := f.WriteAt(one[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	lsns, corrupt := scanAll(t, dir)
	if len(corrupt) != 1 || !strings.Contains(corrupt[0], "crc mismatch on lsn 2") {
		t.Fatalf("corrupt reports = %q, want one crc mismatch on lsn 2", corrupt)
	}
	if len(lsns) != n-1 {
		t.Fatalf("scan delivered %d records, want %d", len(lsns), n-1)
	}
	for i, lsn := range lsns {
		want := uint64(i)
		if i >= 2 {
			want++ // lsn 2 skipped
		}
		if lsn != want {
			t.Fatalf("record %d has lsn %d, want %d (resync failed)", i, lsn, want)
		}
	}

	// Forensic means read-only: the damaged segment is untouched and a
	// second scan sees exactly the same picture.
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("Scan modified the segment file")
	}
	lsns2, corrupt2 := scanAll(t, dir)
	if len(lsns2) != len(lsns) || len(corrupt2) != 1 {
		t.Fatalf("second scan differs: %d records %d corrupt", len(lsns2), len(corrupt2))
	}
}

// TestScanReportsTornTail truncates the final segment mid-record: the
// forensic scan reports the torn frame and still delivers every record
// before it.
func TestScanReportsTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir, Policy: SyncNone})
	const n = 10
	appendN(t, l, n, 60)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seg := segmentFiles(t, dir)[0]
	// Cut into the last record's payload, leaving its frame header whole.
	lastPayload := payloadOffset(t, seg, n-1)
	if err := os.Truncate(seg, lastPayload+1); err != nil {
		t.Fatal(err)
	}

	lsns, corrupt := scanAll(t, dir)
	if len(lsns) != n-1 {
		t.Fatalf("scan delivered %d records, want %d", len(lsns), n-1)
	}
	if len(corrupt) != 1 || !strings.Contains(corrupt[0], "torn payload") {
		t.Fatalf("corrupt reports = %q, want one torn payload", corrupt)
	}
}

// TestScanReportsLSNGap removes a middle segment: Open would drop every
// segment after the hole, and the forensic scan must say so instead of
// folding across it silently.
func TestScanReportsLSNGap(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir, SegmentBytes: 512, Policy: SyncNone})
	appendN(t, l, 40, 60)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("expected at least 3 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	_, corrupt := scanAll(t, dir)
	if len(corrupt) != 1 || !strings.Contains(corrupt[0], "LSN gap") {
		t.Fatalf("corrupt reports = %q, want one LSN gap", corrupt)
	}
}
