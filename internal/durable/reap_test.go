package durable

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/wal"
)

// runJobs drives jobs finished client jobs on an engine over s — each a
// root that mints an assumption, spawns a child that affirms it,
// guesses it and journals a value — next to parked roots that wait on
// Recv. It returns once every job's root and child have been reaped,
// with the parked roots' PIDs, and shuts the engine down (a reap during
// Shutdown is not written, so the parked roots stay live in the WAL).
func runJobs(t *testing.T, s *Store, jobs, parked int) (live []ids.PID) {
	t.Helper()
	eng := core.NewEngine(core.Config{Persist: s})
	defer eng.Shutdown()
	for range parked {
		p, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
			ctx.Record(func() any { return int64(-1) })
			_, _, err := ctx.Recv()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, p.PID())
	}
	for i := range jobs {
		if _, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
			x := ctx.AidInit()
			ctx.Spawn(func(w *core.Ctx) error {
				w.Affirm(x)
				return nil
			})
			ctx.Guess(x)
			ctx.Record(func() any { return int64(i) })
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for !eng.Settle(time.Second) || len(eng.Processes()) != parked {
		if time.Now().After(deadline) {
			t.Fatalf("%d processes still live, want the %d parked roots", len(eng.Processes()), parked)
		}
	}
	return live
}

// reaped counts the tombstones in a Restore map.
func reaped(restore map[ids.PID]*core.Restored) int {
	n := 0
	for _, r := range restore {
		if r.Reaped {
			n++
		}
	}
	return n
}

// TestCheckpointKeepsOnlyLiveProcesses: after 200 finished client jobs
// a checkpoint carries per-process records for the one live process
// only, and every reaped process as a tombstone packed many to a
// record, at ≤ 16 B apiece.
func TestCheckpointKeepsOnlyLiveProcesses(t *testing.T) {
	const jobs = 200
	dir := t.TempDir()
	s, _ := openStoreCkpt(t, dir, 1<<30)
	live := runJobs(t, s, jobs, 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	named := make(map[ids.PID]bool) // PIDs named by per-process records
	var tombs, reapRecs, reapBytes int
	inBracket, brackets := false, 0
	err := wal.Scan(dir, func(_ uint64, payload []byte) error {
		switch tag := payload[0]; {
		case tag == recCkptBegin:
			inBracket = true
		case tag == recCkptEnd:
			inBracket = false
			brackets++
		case !inBracket:
		case tag == recReap:
			r := &reader{buf: payload[1:]}
			count, err := r.uv()
			if err != nil {
				t.Fatal(err)
			}
			tombs += int(count)
			reapRecs++
			reapBytes += len(payload)
		case tag == recCompact || tag == recIntervalOpen || tag == recJournal || tag == recDeadAID || tag == recCkptProc:
			r := &reader{buf: payload[1:]}
			pid, err := r.uv()
			if err != nil {
				t.Fatal(err)
			}
			named[ids.PID(pid)] = true
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if brackets != 1 {
		t.Fatalf("%d checkpoint brackets on disk, want 1", brackets)
	}
	if want := map[ids.PID]bool{live[0]: true}; !reflect.DeepEqual(named, want) {
		t.Fatalf("checkpoint holds process records for %v, want the live root %v only", slices.Sorted(maps.Keys(named)), live[0])
	}
	if tombs != 2*jobs {
		t.Fatalf("checkpoint holds %d tombstones, want %d (a root and a child per job)", tombs, 2*jobs)
	}
	if max := (tombs + tombsPerRecord - 1) / tombsPerRecord; reapRecs > max {
		t.Fatalf("%d tombstones in %d records, want them packed into ≤ %d", tombs, reapRecs, max)
	}
	if per := float64(reapBytes) / float64(tombs); per > 16 {
		t.Fatalf("%.1f B per tombstone, want ≤ 16", per)
	}

	s2, rec := openStoreCkpt(t, dir, 1<<30)
	defer s2.Close()
	if !rec.Checkpointed || reaped(rec.Restore) != 2*jobs || len(rec.Restore) != 2*jobs+1 {
		t.Fatalf("restart from the checkpoint: %s, %d tombstones, want %d and the live root", rec, reaped(rec.Restore), 2*jobs)
	}
}

// driveReaps appends reaps the engine run does not produce: a process
// reaped with a journalled send still missing its frame, a terminated
// one (no surviving epoch), and a record naming a PID after its reap.
func driveReaps(t *testing.T, s *Store) {
	t.Helper()
	pd := localPID(900)
	root := interval.NewRecord(ids.IntervalID{Proc: pd, Seq: 0, Epoch: 3}, interval.Root, 0)
	root.Definite = true
	s.IntervalOpen(pd, root)
	in := msg.Data(remotePID(2), pd, ids.IntervalID{}, nil, "req")
	in.SrcNode, in.SrcSeq = 1, 40
	if err := s.Delivered(1, 40, encode(t, in)); err != nil {
		t.Fatal(err)
	}
	s.JournalAppend(pd, &journal.Entry{Kind: journal.KindRecv, Msg: in})
	s.JournalAppend(pd, &journal.Entry{Kind: journal.KindSend, Msg: msg.Data(pd, remotePID(3), root.ID, nil, "reply"), Interval: root.ID})
	s.Reaped(pd, []uint32{3})

	pt := localPID(901)
	rootT := interval.NewRecord(ids.IntervalID{Proc: pt, Seq: 0, Epoch: 5}, interval.Root, 0)
	s.IntervalOpen(pt, rootT)
	s.Rollback(pt, rootT.ID)
	s.Reaped(pt, nil)
	s.DeadAID(pt, ids.AID(remotePID(12))) // drained after the reap: folds to nothing
}

// driveReapTail retires the reaped process's pending send with its frame
// and reaps a live root in the tail.
func driveReapTail(t *testing.T, s *Store, live ids.PID) {
	t.Helper()
	pd := localPID(900)
	s.FrameQueued(1, 50, encode(t, msg.Data(pd, remotePID(3), ids.IntervalID{Proc: pd, Epoch: 3}, nil, "reply")))
	s.Reaped(live, []uint32{1})
}

// TestTombstonesSurviveCheckpoint: a full-log fold and a
// checkpoint-plus-tail fold of the same history give the same Restore
// map, tombstones included, and the same pending resends.
func TestTombstonesSurviveCheckpoint(t *testing.T) {
	plainDir := t.TempDir()
	s, _ := openStore(t, plainDir)
	live := runJobs(t, s, 20, 2)
	driveReaps(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ckptDir := t.TempDir()
	copyDir(t, plainDir, ckptDir)

	plain, rec := openStore(t, plainDir)
	if reaped(rec.Restore) != 42 || len(rec.Resend) != 1 {
		t.Fatalf("full fold before the tail: %d tombstones and %d resends, want 42 and 1", reaped(rec.Restore), len(rec.Resend))
	}
	ck, _ := openStoreCkpt(t, ckptDir, 1<<30)
	if err := ck.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{plain, ck} {
		driveReapTail(t, st, live[0])
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	p2, recPlain := openStore(t, plainDir)
	defer p2.Close()
	c2, recCkpt := openStoreCkpt(t, ckptDir, 1<<30)
	defer c2.Close()
	if !recCkpt.Checkpointed {
		t.Fatal("checkpointed store did not recover via its checkpoint")
	}
	if got, want := normalize(recCkpt), normalize(recPlain); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint+tail recovery diverged from full replay:\n ckpt: %+v\nplain: %+v", got, want)
	}
	if reaped(recPlain.Restore) != 43 || len(recPlain.Restore) != 44 || len(recPlain.Resend) != 0 {
		t.Fatalf("recovered %d tombstones of %d processes and %d resends, want 43 of 44 and none", reaped(recPlain.Restore), len(recPlain.Restore), len(recPlain.Resend))
	}
	if r := recPlain.Restore[live[0]]; !r.Reaped || !slices.Equal(r.Survivors, []uint32{1}) || len(r.Entries) != 0 {
		t.Fatalf("tail-reaped root restored as %+v, want its tombstone", r)
	}
	if r := recPlain.Restore[localPID(901)]; !r.Reaped || len(r.Survivors) != 0 || r.MaxEpoch != 5 {
		t.Fatalf("terminated reaped process restored as %+v, want a tombstone with no survivor and epoch high-water 5", r)
	}
	if r := recPlain.Restore[live[1]]; r.Reaped || len(r.Entries) == 0 {
		t.Fatalf("live root restored as %+v, want its journal", r)
	}
}

// TestAdoptSkipsReapedProcesses: a corpse WAL holding N reaped and M
// live processes transplants exactly the M live ones.
func TestAdoptSkipsReapedProcesses(t *testing.T) {
	const jobs, parked = 6, 3
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	live := runJobs(t, s, jobs, parked)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ex, err := ReadExtract(dir, testSelf)
	if err != nil || ex.ProcErr != nil {
		t.Fatalf("ReadExtract: %v / %v", err, ex.ProcErr)
	}
	if n := reaped(ex.Procs); n != 2*jobs || len(ex.Procs) != 2*jobs+parked {
		t.Fatalf("extract holds %d tombstones of %d processes, want %d of %d", n, len(ex.Procs), 2*jobs, 2*jobs+parked)
	}

	eng := core.NewEngine(core.Config{PIDBase: localPID(1 << 20)})
	defer eng.Shutdown()
	pairs, err := eng.AdoptProcesses(testSelf, ex.Procs, nil, func(ctx *core.Ctx) error {
		ctx.Record(func() any { return int64(-1) })
		_, _, err := ctx.Recv()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var adopted []ids.PID
	for _, p := range pairs {
		adopted = append(adopted, p.Old)
	}
	slices.Sort(adopted)
	if !slices.Equal(adopted, live) {
		t.Fatalf("adopted %v, want exactly the live %v", adopted, live)
	}
}
