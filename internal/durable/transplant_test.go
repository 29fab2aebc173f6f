package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/wire"
)

// TestProcExtractMatchesRestartFold pins the transplant reader's core
// contract: ReadExtract folding a node's WAL from the outside must
// reconstruct exactly the per-process state the node's own restart
// recovery would, and must do so read-only — a second forensic scan
// sees the same thing, so several survivors can partition one corpse
// concurrently.
func TestProcExtractMatchesRestartFold(t *testing.T) {
	dir := t.TempDir()
	s, rec := openStore(t, dir)
	if !rec.Empty() {
		t.Fatalf("fresh dir not empty: %s", rec)
	}
	eng := core.NewEngine(core.Config{Persist: s})
	p, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		ctx.Record(func() any { return int64(1) })
		ctx.GuessNew(ids.NilAID)
		_, _, err := ctx.Recv() // park until shutdown
		return err
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !eng.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	pid := p.PID()
	eng.Shutdown()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ex, err := ReadExtract(dir, testSelf)
	if err != nil {
		t.Fatalf("ReadExtract: %v", err)
	}
	if ex.ProcErr != nil {
		t.Fatalf("ReadExtract: %v", ex.ProcErr)
	}
	got := ex.Procs[pid]
	if got == nil {
		t.Fatalf("extraction lost the process: %v", ex.Procs)
	}
	if len(ex.Resend) != 0 || len(ex.Unacked) != 0 || len(ex.Orphans) != 0 {
		t.Fatalf("quiescent corpse extracted traffic: resend=%d unacked=%d orphans=%d",
			len(ex.Resend), len(ex.Unacked), len(ex.Orphans))
	}

	// The node's own restart fold is the reference.
	s2, rec2 := openStore(t, dir)
	defer s2.Close()
	want := rec2.Restore[pid]
	if want == nil {
		t.Fatalf("restart recovery lost the process: %v", rec2.Restore)
	}
	if len(got.Intervals) != len(want.Intervals) {
		t.Errorf("extract intervals = %d, restart fold = %d", len(got.Intervals), len(want.Intervals))
	}
	if len(got.Entries) != len(want.Entries) {
		t.Errorf("extract journal entries = %d, restart fold = %d", len(got.Entries), len(want.Entries))
	}
	if len(got.Dead) != len(want.Dead) {
		t.Errorf("extract dead AIDs = %d, restart fold = %d", len(got.Dead), len(want.Dead))
	}
	if got.NextSeq != want.NextSeq {
		t.Errorf("extract NextSeq = %d, restart fold = %d", got.NextSeq, want.NextSeq)
	}
	if got.MaxEpoch != want.MaxEpoch {
		t.Errorf("extract MaxEpoch = %d, restart fold = %d", got.MaxEpoch, want.MaxEpoch)
	}
	if got.HasBase != want.HasBase || got.Terminated != want.Terminated {
		t.Errorf("extract base/terminated = %v/%v, restart fold = %v/%v",
			got.HasBase, got.Terminated, want.HasBase, want.Terminated)
	}

	// Read-only: the forensic scan changed nothing, so a second scan
	// (another survivor adopting its own ring slice) sees the same state.
	ex2, err := ReadExtract(dir, testSelf)
	if err != nil {
		t.Fatalf("second ReadExtract: %v", err)
	}
	if !reflect.DeepEqual(ex, ex2) {
		t.Error("second forensic scan diverged — the reader is not read-only")
	}
}

// TestTransplantRecordRoundTrip pins the adopter-side durability of a
// hand-off: ProcExport under the reborn PID + TransplantRecorded must
// survive the adopter's own restart as Recovered.Transplants plus a
// respawnable snapshot, and a Transplant respawn from that snapshot must
// replay the corpse's journalled values rather than recompute.
func TestTransplantRecordRoundTrip(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()

	var mu sync.Mutex
	var got []any
	note := func(v any) { mu.Lock(); got = append(got, v); mu.Unlock() }
	body := func(run int64) core.Body {
		return func(ctx *core.Ctx) error {
			note(ctx.Record(func() any { return run }).(int64))
			_, _, err := ctx.Recv() // park until shutdown
			return err
		}
	}

	// The corpse's life: one journalled Record, then death at the park.
	sA, _ := openStore(t, dirA)
	engA := core.NewEngine(core.Config{Persist: sA})
	p, err := engA.SpawnRoot(body(1))
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !engA.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	old := p.PID()
	engA.Shutdown()
	if err := sA.Close(); err != nil {
		t.Fatalf("close corpse store: %v", err)
	}

	ex, err := ReadExtract(dirA, testSelf)
	if err != nil {
		t.Fatalf("ReadExtract: %v", err)
	}
	if ex.ProcErr != nil {
		t.Fatalf("ReadExtract: %v", ex.ProcErr)
	}
	snap := ex.Procs[old]
	if snap == nil {
		t.Fatalf("extraction lost the process: %v", ex.Procs)
	}

	// The adopter commits the hand-off on its own WAL — snapshot under
	// the reborn PID first, mapping last — then crashes before (or
	// after; it must not matter) spawning the incarnation.
	newPid := localPID(41)
	sB, _ := openStore(t, dirB)
	if err := sB.ProcExport(newPid, snap); err != nil {
		t.Fatalf("ProcExport: %v", err)
	}
	if err := sB.TransplantRecorded(3, old, newPid); err != nil {
		t.Fatalf("TransplantRecorded: %v", err)
	}
	if err := sB.Close(); err != nil {
		t.Fatalf("close adopter store: %v", err)
	}

	s2, rec := openStore(t, dirB)
	defer s2.Close()
	origin, ok := rec.Transplants[newPid]
	if !ok || origin.From != 3 || origin.OldPID != old {
		t.Fatalf("recovered origin = %+v (ok=%v), want from node 3, old %v", origin, ok, old)
	}
	r := rec.Restore[newPid]
	if r == nil {
		t.Fatalf("no snapshot recovered under the reborn PID: %v", rec.Restore)
	}
	if len(r.Intervals) != len(snap.Intervals) || len(r.Entries) != len(snap.Entries) {
		t.Fatalf("recovered snapshot intervals/entries = %d/%d, want %d/%d",
			len(r.Intervals), len(r.Entries), len(snap.Intervals), len(snap.Entries))
	}

	// The restarted adopter respawns the incarnation from its own WAL:
	// run 2's body must observe run 1's journalled value.
	eng2 := core.NewEngine(core.Config{Persist: s2, Restore: rec.Restore})
	defer eng2.Shutdown()
	p2, err := eng2.Transplant(newPid, body(2), nil)
	if err != nil {
		t.Fatalf("Transplant respawn: %v", err)
	}
	if p2.PID() != newPid {
		t.Fatalf("respawn drew %v, want the recorded reborn PID %v", p2.PID(), newPid)
	}
	if !eng2.Settle(10 * time.Second) {
		t.Fatal("no settle after respawn")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []any{int64(1), int64(1)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("observations = %v, want %v (journal not replayed through the hand-off)", got, want)
	}
}

// TestTransplantHandOffCommitsLast cuts an adopter's WAL after every
// record of a real adoption (Engine.AdoptProcesses over a Store) and
// restarts from each prefix. Wherever the cut falls, a recovered
// mapping must come with its snapshot: a restart that finds
// recTransplant without the recProcIndex before it would respawn an
// empty incarnation under the announced PID.
func TestTransplantHandOffCommitsLast(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	body := func(ctx *core.Ctx) error {
		ctx.Record(func() any { return int64(1) })
		_, _, err := ctx.Recv() // park until shutdown
		return err
	}

	sA, _ := openStore(t, dirA)
	engA := core.NewEngine(core.Config{Persist: sA})
	if _, err := engA.SpawnRoot(body); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if !engA.Settle(10 * time.Second) {
		t.Fatal("no settle")
	}
	engA.Shutdown()
	if err := sA.Close(); err != nil {
		t.Fatalf("close corpse store: %v", err)
	}
	ex, err := ReadExtract(dirA, testSelf)
	if err != nil || ex.ProcErr != nil {
		t.Fatalf("ReadExtract: %v / %v", err, ex.ProcErr)
	}

	sB, _ := openStore(t, dirB)
	engB := core.NewEngine(core.Config{Persist: sB, PIDBase: wire.PIDBase(2)})
	pairs, err := engB.AdoptProcesses(testSelf, ex.Procs, nil, body)
	if err != nil || len(pairs) != 1 {
		t.Fatalf("AdoptProcesses = %v, %v; want one pair", pairs, err)
	}
	newPid := pairs[0].New
	engB.Shutdown()
	if err := sB.Close(); err != nil {
		t.Fatalf("close adopter store: %v", err)
	}

	seg, frames := walFrames(t, dirB)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	mapped := 0
	for k, f := range frames {
		cut := filepath.Join(t.TempDir(), "cut")
		if err := os.MkdirAll(cut, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cut, filepath.Base(seg)), data[:f.end], 0o644); err != nil {
			t.Fatal(err)
		}
		s, rec := openStore(t, cut)
		s.Close()
		if _, ok := rec.Transplants[newPid]; !ok {
			continue
		}
		mapped++
		if r := rec.Restore[newPid]; r == nil || len(r.Entries) == 0 {
			t.Fatalf("WAL cut after record %d of %d: mapping for %v recovered without its snapshot", k+1, len(frames), newPid)
		}
	}
	if mapped == 0 {
		t.Fatal("no cut recovered the mapping")
	}
}
