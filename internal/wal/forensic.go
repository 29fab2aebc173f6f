package wal

import "fmt"

// Scan reads every segment in dir read-only, in LSN order, reporting
// rather than repairing damage. It is the forensic counterpart of Open's
// recovery scan and reads frames with the same reader: Open truncates
// the first invalid byte and drops everything after it (correct for
// recovery — nothing past a torn tail was acknowledged durable), while
// Scan modifies nothing and keeps going, so a corrupted log can be
// inspected before any destructive replay.
//
// onRecord receives each valid record; onCorrupt receives each invalid
// spot as the segment path, a byte offset within it, and a reason. After
// a CRC mismatch whose claimed length was plausible (the full frame is
// present and within MaxRecord) the scan skips the damaged payload and
// resynchronizes at the next frame boundary; a torn or implausible frame
// ends that segment, but later segments are still scanned. A segment
// that does not start at the LSN where the previous one stopped is
// reported as a gap (offset 0) — Open would drop it — and then scanned.
// An error from either callback aborts the scan and is returned, so a
// reader that must stop at the first damage, as Open does, returns one
// from onCorrupt. Either callback may be nil.
func Scan(dir string, onRecord func(lsn uint64, payload []byte) error, onCorrupt func(segment string, offset int64, reason string) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	if onRecord == nil {
		onRecord = func(uint64, []byte) error { return nil }
	}
	report := func(seg string, d damage) error {
		if onCorrupt == nil {
			return nil
		}
		return onCorrupt(seg, d.off, d.reason)
	}
	var next uint64 // LSN the previous segment stopped at
	for i, seg := range segs {
		if i > 0 && seg.first != next {
			gap := damage{0, fmt.Sprintf("LSN gap: segment starts at LSN %d, previous segment stopped at %d", seg.first, next)}
			if err := report(seg.path, gap); err != nil {
				return err
			}
		}
		stop, d, err := readSegment(seg, onRecord, func(d damage) error { return report(seg.path, d) })
		if err != nil {
			return err
		}
		if d != nil {
			if err := report(seg.path, *d); err != nil {
				return err
			}
		}
		next = stop.lsn
	}
	return nil
}
