// Command waldump scans a hoped --data-dir WAL and prints a per-record
// summary — a debugging aid for crash-recovery investigations.
//
//	waldump --dir /var/lib/hoped/node1 [--node 1] [-v]
//
// The first pass is forensic and strictly read-only: a corrupt record is
// reported with its segment file and byte offset and the scan continues
// past it. The recovery replay (second pass) runs hoped's real boot path,
// which truncates at the first invalid byte — so it is skipped when the
// forensic pass found mid-log corruption, keeping the evidence intact.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"github.com/hope-dist/hope/internal/durable"
	// Payload vocabulary must match hoped's, or journalled messages and
	// compaction snapshots recovered from its WAL will not decode; rpc
	// registers its own types.
	_ "github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/stability"
	"github.com/hope-dist/hope/internal/wal"
)

func main() {
	dir := flag.String("dir", "", "WAL directory (a hoped --data-dir)")
	node := flag.Int("node", 1, "node ID the WAL belongs to")
	verbose := flag.Bool("v", false, "print every record")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "waldump: --dir is required")
		os.Exit(2)
	}
	if err := run(*dir, *node, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "waldump:", err)
		os.Exit(1)
	}
}

const maxTag = 23

func run(dir string, node int, verbose bool) error {
	names := map[byte]string{
		1: "peer-send", 2: "peer-ack", 3: "delivered", 4: "consumed",
		5: "journal", 6: "interval-open", 7: "interval-state", 8: "finalize",
		9: "rollback", 10: "dead-aid", 11: "compact", 12: "poison",
		13: "auto-deny", 14: "view-epoch", 15: "ckpt-begin", 16: "ckpt-end",
		17: "ckpt-abort", 18: "ckpt-seq", 19: "ckpt-proc", 20: "watermark",
		21: "aid-export", 22: "proc-index", 23: "transplant",
	}
	counts := map[byte]uint64{}
	var total, corrupt uint64
	var lastLSN uint64
	err := wal.Scan(dir,
		func(lsn uint64, payload []byte) error {
			total++
			lastLSN = lsn
			var tag byte
			if len(payload) > 0 {
				tag = payload[0]
			}
			counts[tag]++
			if verbose {
				// Frames, journal entries and snapshots are opened by the
				// durable package's own materialisers; waldump decodes only
				// the two flat engine-level records it formats specially.
				detail := durable.Describe(payload)
				switch tag {
				case 20:
					detail = watermarkDetail(payload[1:])
				case 23:
					detail = transplantDetail(payload[1:])
				}
				if detail != "" {
					detail = "  " + detail
				}
				fmt.Printf("%8d  %-14s %4dB%s\n", lsn, names[tag], len(payload), detail)
			}
			return nil
		},
		func(seg string, off int64, reason string) error {
			corrupt++
			fmt.Printf("CORRUPT %s @%d: %s\n", seg, off, reason)
			return nil
		})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d records, last LSN %d, %d corrupt\n", dir, total, lastLSN, corrupt)
	for tag := byte(1); tag <= maxTag; tag++ {
		if counts[tag] > 0 {
			fmt.Printf("  %-14s %8d\n", names[tag], counts[tag])
		}
	}
	if unknown := total - sum(counts, maxTag); unknown > 0 {
		fmt.Printf("  %-14s %8d\n", "UNKNOWN", unknown)
	}
	if counts[15] > 0 || counts[17] > 0 {
		fmt.Printf("checkpoints: %d begun, %d completed, %d aborted\n",
			counts[15], counts[16], counts[17])
	}
	if corrupt > 0 {
		fmt.Println("skipping recovery replay: it would truncate at the first corrupt byte")
		return nil
	}

	// Second pass: full recovery, as hoped would do it at boot. (Real
	// recovery: a torn tail found here is truncated, exactly as a
	// rebooting node would.)
	store, rec, err := durable.Open(dir, node, wal.SyncNone, nil)
	if err != nil {
		return fmt.Errorf("recovery replay: %w", err)
	}
	defer store.Close()
	fmt.Printf("recovery: %s\n", rec)
	if len(rec.Frontier) > 0 {
		fmt.Printf("  watermark: view e%d frontier %s\n",
			rec.FrontierView, stability.FormatFrontier(rec.Frontier))
	}
	for pid, r := range rec.Restore {
		fmt.Printf("  proc %v: intervals=%d entries=%d dead=%d base=%v nextseq=%d maxepoch=%d terminated=%v\n",
			pid, len(r.Intervals), len(r.Entries), len(r.Dead), r.HasBase, r.NextSeq, r.MaxEpoch, r.Terminated)
	}
	for pid, origin := range rec.Transplants {
		fmt.Printf("  transplant %v: reborn from %v (node %d's corpse)\n", pid, origin.OldPID, origin.From)
	}
	return nil
}

// transplantDetail decodes a recTransplant payload (corpse node, then
// the old and reborn PIDs) into "from=N old new".
func transplantDetail(b []byte) string {
	from, n := binary.Uvarint(b)
	if n <= 0 {
		return "(malformed)"
	}
	b = b[n:]
	oldPID, n := binary.Uvarint(b)
	if n <= 0 {
		return "(malformed)"
	}
	b = b[n:]
	newPID, n := binary.Uvarint(b)
	if n <= 0 {
		return "(malformed)"
	}
	return fmt.Sprintf("from=%d old=pid:%d new=pid:%d", from, oldPID, newPID)
}

// watermarkDetail decodes a recWatermark payload (view epoch, then
// node/epoch pairs) into "e<view> <node>:<epoch>,...". A malformed
// payload is reported, not fatal — the forensic pass keeps going.
func watermarkDetail(b []byte) string {
	view, n := binary.Uvarint(b)
	if n <= 0 {
		return "(malformed)"
	}
	b = b[n:]
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return "(malformed)"
	}
	b = b[n:]
	f := make(map[int]uint32, cnt)
	for i := uint64(0); i < cnt; i++ {
		node, n := binary.Uvarint(b)
		if n <= 0 {
			return "(malformed)"
		}
		b = b[n:]
		epoch, n := binary.Uvarint(b)
		if n <= 0 {
			return "(malformed)"
		}
		b = b[n:]
		f[int(node)] = uint32(epoch)
	}
	return fmt.Sprintf("e%d %s", view, stability.FormatFrontier(f))
}

func sum(counts map[byte]uint64, max byte) uint64 {
	var s uint64
	for tag := byte(1); tag <= max; tag++ {
		s += counts[tag]
	}
	return s
}
