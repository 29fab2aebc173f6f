package durable

import (
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

// The differential corpus under testdata/differential is a set of WAL
// directories recorded from a real two-node run, plus <name>.golden: the
// canonical dump of what the fold made of each directory AT THE COMMIT
// THAT RECORDED IT (ee1a124, the last commit whose fold decoded every
// record eagerly and whose engine still wrote cadence recProcIndex
// records). TestDifferentialFold folds the same bytes with the current
// apply+finish and compares dump against dump, field by field: the WAL
// format and the meaning of every record kind in it are pinned across
// the rewrite.
//
// Re-recording (go test -run TestDifferentialFold -record-wal DIR) makes
// the current commit the reference; do that only when the on-disk format
// changes on purpose, and say so in the commit.
var recordWAL = flag.String("record-wal", "", "record a fresh differential corpus (WALs + goldens) into this directory and exit")

const differentialDir = "testdata/differential"

// differentialNode maps each recorded directory to the node whose WAL it
// is (the fold needs it for send/frame pairing).
var differentialNode = map[string]int{
	"client":     0, // at quiescence, then: compaction, adoption hand-off + forced recProcIndex, a complete bracket, a torn one
	"client-mid": 0, // copied while a job with a denial was in flight
	"server-mid": 1, // likewise: unconsumed inbox, unacked frames, cadence recProcIndex
}

func TestDifferentialFold(t *testing.T) {
	if *recordWAL != "" {
		recordDifferential(t, *recordWAL)
		return
	}
	// The corpus must keep covering what it was recorded for.
	seen := map[byte]bool{}
	for name := range differentialNode {
		if err := wal.Scan(filepath.Join(differentialDir, name), func(_ uint64, payload []byte) error {
			seen[payload[0]] = true
			return nil
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, tag := range []byte{recRollback, recDeadAID, recCompact, recCkptBegin, recCkptEnd, recProcIndex, recTransplant, recAIDExport, recWatermark} {
		if !seen[tag] {
			t.Errorf("corpus holds no record with tag %d", tag)
		}
	}
	for name, node := range differentialNode {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(differentialDir, name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got := foldAndDump(t, filepath.Join(differentialDir, name), node)
			if got != string(want) {
				t.Fatalf("fold of %s diverged from the recording commit's fold:\n%s", name, firstDiff(string(want), got))
			}
		})
	}
}

// foldAndDump folds a copy of the WAL at src every way the package
// offers — restart recovery and the extract (processes, unconsumed
// frames) — and
// renders the results canonically.
func foldAndDump(t *testing.T, src string, node int) string {
	t.Helper()
	dir := t.TempDir() // recovery truncates torn tails and voids torn brackets: never in testdata
	copyDir(t, src, dir)
	var b strings.Builder

	ex, err := ReadExtract(dir, node)
	if err != nil {
		t.Fatalf("ReadExtract: %v", err)
	}
	if ex.ProcErr != nil {
		t.Fatalf("ReadExtract: %v", ex.ProcErr)
	}
	s, rec, err := OpenOptions(Options{Dir: dir, NodeID: node, Policy: wal.SyncNone})
	if err != nil {
		t.Fatalf("OpenOptions: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fmt.Fprintf(&b, "== recovered records=%d torn=%d checkpointed=%v from=%d tail=%d skipped=%d view=%d\n",
		rec.Records, rec.Truncations, rec.Checkpointed, rec.FromLSN, rec.TailRecords, rec.Skipped, rec.ViewEpoch)
	dumpResume(&b, rec.Resume)
	dumpProcs(&b, "restore", rec.Restore)
	dumpMsgs(&b, "redeliver", rec.Redeliver, false)
	dumpMsgs(&b, "resend", rec.Resend, true)
	fmt.Fprintf(&b, "denied %v\n", rec.Denied)
	fmt.Fprintf(&b, "frontier view=%d %v\n", rec.FrontierView, sortedMap(rec.Frontier))
	aids := make([]ids.AID, 0, len(rec.AIDExports))
	for a := range rec.AIDExports {
		aids = append(aids, a)
	}
	sort.Slice(aids, func(i, j int) bool { return aids[i] < aids[j] })
	for _, a := range aids {
		fmt.Fprintf(&b, "aid-export %d %x\n", a, rec.AIDExports[a])
	}
	reborn := make([]ids.PID, 0, len(rec.Transplants))
	for pid := range rec.Transplants {
		reborn = append(reborn, pid)
	}
	sort.Slice(reborn, func(i, j int) bool { return reborn[i] < reborn[j] })
	for _, pid := range reborn {
		fmt.Fprintf(&b, "transplant %d <- node %d pid %d\n", pid, rec.Transplants[pid].From, rec.Transplants[pid].OldPID)
	}

	// The extraction's processes and the orphan frames restate the
	// restart fold's Restore and Redeliver; a digest of the same rendering
	// pins them without tripling the golden.
	fmt.Fprintf(&b, "== extract\n")
	var same strings.Builder
	dumpProcs(&same, "restore", ex.Procs)
	fmt.Fprintf(&b, "procs %s\n", digest(same.String()))
	dumpMsgs(&b, "resend", ex.Resend, true)
	dumpMsgs(&b, "unacked", ex.Unacked, true) // peers fold in map order
	dumpMsgs(&b, "orphan", ex.Orphans, false)
	same.Reset()
	dumpMsgs(&same, "redeliver", ex.Unconsumed, false)
	fmt.Fprintf(&b, "== orphan frames %s\n", digest(same.String()))
	return b.String()
}

func digest(text string) string {
	return fmt.Sprintf("lines=%d crc=%08x", strings.Count(text, "\n"), crc32.ChecksumIEEE([]byte(text)))
}

func dumpResume(w io.Writer, r *wire.Resume) {
	peers := make([]int, 0, len(r.Peers))
	for id := range r.Peers {
		peers = append(peers, id)
	}
	sort.Ints(peers)
	for _, id := range peers {
		p := r.Peers[id]
		fmt.Fprintf(w, "peer %d nextseq=%d unacked=%d\n", id, p.NextSeq, len(p.Frames))
		for _, f := range p.Frames {
			fmt.Fprintf(w, "  frame seq=%d len=%d crc=%08x\n", f.Seq, len(f.Frame), crc32.ChecksumIEEE(f.Frame))
		}
	}
	fmt.Fprintf(w, "delivered %v\n", sortedMap(r.Delivered))
}

func dumpProcs(w io.Writer, label string, procs map[ids.PID]*core.Restored) {
	pids := make([]ids.PID, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		r := procs[pid]
		fmt.Fprintf(w, "%s %d nextseq=%d maxepoch=%d terminated=%v dead=%v base=%v/%#v\n",
			label, pid, r.NextSeq, r.MaxEpoch, r.Terminated, r.Dead, r.HasBase, r.Base)
		for _, ri := range r.Intervals {
			fmt.Fprintf(w, "  interval %+v\n", ri)
		}
		for i, e := range r.Entries {
			fmt.Fprintf(w, "  entry %d %s\n", i, entryString(e))
		}
	}
}

func entryString(e *journal.Entry) string {
	s := fmt.Sprintf("kind=%d aid=%d result=%v interval=%v child=%d note=%#v",
		e.Kind, e.AID, e.Result, e.Interval, e.Child, e.Note)
	if e.Msg != nil {
		s += " msg{" + msgString(e.Msg) + "}"
	}
	return s
}

func msgString(m *msg.Message) string {
	return fmt.Sprintf("kind=%d from=%d to=%d iid=%v aid=%d epoch=%d ido=%v tag=%v src=%d/%d payload=%#v",
		m.Kind, m.From, m.To, m.IID, m.AID, m.Epoch, m.IDO, m.Tag, m.SrcNode, m.SrcSeq, m.Payload)
}

// dumpMsgs prints one message per line. unordered lists (the fold walks
// a map to build them) are sorted first.
func dumpMsgs(w io.Writer, label string, ms []*msg.Message, unordered bool) {
	lines := make([]string, len(ms))
	for i, m := range ms {
		lines[i] = msgString(m)
	}
	if unordered {
		sort.Strings(lines)
	}
	for _, l := range lines {
		fmt.Fprintf(w, "%s %s\n", label, l)
	}
}

func sortedMap[V any](m map[int]V) string {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%d:%v ", k, m[k])
	}
	return strings.TrimSpace(b.String())
}

func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n  golden: %s\n  folded: %s", i+1, wl, gl)
		}
	}
	return "(identical)"
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Recording

// diffMember is one recorded node: wire transport + engine + store,
// composed the way cmd/hoped composes them.
type diffMember struct {
	store *Store
	node  *wire.Node
	eng   *core.Engine
}

func startDiffMember(t *testing.T, id int, dir string, ckptEvery int) *diffMember {
	t.Helper()
	// Interval fsync, so a mid-run copy finds the records on disk.
	store, rec, err := OpenOptions(Options{Dir: dir, NodeID: id, Policy: wal.SyncInterval, CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatal(err)
	}
	node, err := wire.NewNode(wire.NodeConfig{ID: id, Listen: "127.0.0.1:0", Durable: store, Resume: rec.Resume})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.Config{PIDBase: wire.PIDBase(id), Transport: node, Persist: store,
		Restore: rec.Restore, Denied: rec.Denied})
	return &diffMember{store: store, node: node, eng: eng}
}

func (m *diffMember) stop(t *testing.T) {
	t.Helper()
	m.node.DrainFor(2 * time.Second)
	m.eng.Shutdown()
	m.node.Close()
	if err := m.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// recordDifferential drives a two-node StreamedWorker/PrintServer run
// whose every job ends in a denial (pageSize 2R−1), and writes the
// corpus described at the top of this file into out.
func recordDifferential(t *testing.T, out string) {
	work := t.TempDir()
	cdir, sdir := filepath.Join(work, "client"), filepath.Join(work, "server")
	// The client checkpoints on a cadence hot enough that its directories
	// hold complete brackets. The server writes one bracket by hand after
	// the first job, so the cadence recProcIndex records (one per 64
	// journal appends, at the recording commit) all survive in its tail.
	client, server := startDiffMember(t, 0, cdir, 150), startDiffMember(t, 1, sdir, 1<<20)
	client.node.SetPeer(1, server.node.Addr())
	server.node.SetPeer(0, client.node.Addr())

	srv, err := server.eng.SpawnRoot(rpc.PrintServer())
	if err != nil {
		t.Fatal(err)
	}
	// A process that compacts: recCompact, and a journal that restarts
	// from a base.
	if _, err := client.eng.SpawnRoot(func(ctx *core.Ctx) error {
		total := 0
		if b, ok := ctx.Base(); ok {
			total = b.(int)
		}
		for i := 0; i < 3; i++ {
			total += ctx.Record(func() any { return 10 + i }).(int)
			ctx.Compact(func() any { return total })
		}
		ctx.Record(func() any { return "after-compaction" })
		_, _, err := ctx.Recv() // park until shutdown
		return err
	}); err != nil {
		t.Fatal(err)
	}

	job := func(reports int, midway func()) {
		done := make(chan rpc.PageReport, 1)
		p, err := client.eng.SpawnRoot(rpc.StreamedWorker(srv.PID(), 2*reports-1, reports,
			func(r rpc.PageReport) { done <- r }))
		if err != nil {
			t.Fatal(err)
		}
		if midway != nil {
			midway()
		}
		select {
		case r := <-done:
			if r.Totals != reports {
				t.Fatalf("job printed %d totals, want %d", r.Totals, reports)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("job did not commit: %+v", p.Snapshot())
		}
		for st := p.Snapshot(); !st.Completed || !st.AllDefinite; st = p.Snapshot() {
			time.Sleep(time.Millisecond)
		}
	}
	appends := func() uint64 { return server.store.Log().Metrics().Appends }
	job(4, nil)
	if err := server.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := appends()
	job(5, nil)
	perJob := appends() - before
	job(8, nil)
	job(7, nil)
	// Engine-level records nothing in this composition writes.
	client.store.AutoDenied(ids.AID(wire.PIDBase(1) + 77))
	client.store.ViewChanged(3, []int{0, 1})
	client.store.WatermarkAdvanced(3, map[int]uint32{0: 4, 1: 2})
	client.store.WatermarkAdvanced(3, map[int]uint32{0: 6, 1: 1})
	client.store.AIDExport(ids.AID(wire.PIDBase(0)+90), []byte("machine-snapshot-1"))
	client.store.AIDExport(ids.AID(wire.PIDBase(0)+91), []byte("shipped"))
	client.store.AIDExport(ids.AID(wire.PIDBase(0)+91), nil)
	// The third job is copied mid-flight, once the server has logged
	// about half of what a job costs it.
	start := appends()
	job(4, func() {
		for appends() < start+perJob/2 {
			time.Sleep(50 * time.Microsecond)
		}
		copyDir(t, cdir, filepath.Join(out, "client-mid"))
		copyDir(t, sdir, filepath.Join(out, "server-mid"))
	})
	client.stop(t)
	server.stop(t)

	// Adoption hand-off on the client: it "adopts" the print server off
	// the server's WAL: a complete bracket, then a tail holding
	// recTransplant plus the forced recProcIndex under the reborn PID, then
	// a second bracket torn mid-write.
	ex, err := ReadExtract(sdir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ProcErr != nil {
		t.Fatal(ex.ProcErr)
	}
	snap := ex.Procs[srv.PID()]
	if snap == nil {
		t.Fatalf("server WAL lost the print server: %v", ex.Procs)
	}
	s, _, err := OpenOptions(Options{Dir: cdir, NodeID: 0, Policy: wal.SyncAlways, CheckpointEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reborn := wire.PIDBase(0) + 4000
	if err := s.TransplantRecorded(1, srv.PID(), reborn); err != nil {
		t.Fatal(err)
	}
	if err := s.ProcExport(reborn, snap); err != nil {
		t.Fatal(err)
	}
	s.AutoDenied(ids.AID(wire.PIDBase(1) + 78))
	s.JournalAppend(reborn, &journal.Entry{Kind: journal.KindNote, Note: "after-adoption"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	copyDir(t, cdir, filepath.Join(out, "client")) // the history a torn bracket must fall back to
	s, _, err = OpenOptions(Options{Dir: cdir, NodeID: 0, Policy: wal.SyncAlways, CheckpointEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // prunes cdir down to the new bracket's segment
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(cdir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("bracket segment: %v %v", ents, err)
	}
	bracket, err := os.ReadFile(filepath.Join(cdir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "client", ents[0].Name()), bracket[:len(bracket)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	for name, node := range differentialNode {
		dump := foldAndDump(t, filepath.Join(out, name), node)
		if err := os.WriteFile(filepath.Join(out, name+".golden"), []byte(dump), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"entry", "interval"} {
			if !strings.Contains(dump, want) {
				t.Errorf("%s: recording holds no %q", name, want)
			}
		}
		t.Logf("%s: %d bytes of golden", name, len(dump))
	}
}

// TestMixedCodecWALFolds is the upgrade path of a durable node: a WAL
// recorded when every payload was a gob stream (codec version 3) is
// opened by the live store, which appends journal entries and frames in
// the current codec's binary payload form, and the two generations fold
// into one Recovered — the old records to what they folded to before
// the append, the new ones to the values appended.
func TestMixedCodecWALFolds(t *testing.T) {
	const node, peer = 0, 1
	dir := t.TempDir()
	copyDir(t, filepath.Join(differentialDir, "client-mid"), dir)
	open := func() (*Store, *Recovered) {
		t.Helper()
		s, rec, err := OpenOptions(Options{Dir: dir, NodeID: node, Policy: wal.SyncNone})
		if err != nil {
			t.Fatalf("OpenOptions: %v", err)
		}
		return s, rec
	}
	s, old := open()
	worker, server := wire.PIDBase(node)+11, wire.PIDBase(peer)+1
	before := old.Restore[worker]
	oldFrames := old.Resume.Peers[peer].Frames
	if before == nil || len(before.Entries) == 0 || len(oldFrames) == 0 || len(old.Redeliver) == 0 {
		t.Fatalf("the recording no longer holds a journal, unacked frames and an unconsumed inbox: %s", old)
	}
	for _, f := range oldFrames {
		if f.Frame[0] != 3 {
			t.Fatalf("recorded frame seq=%d is codec version %d, want the gob-era 3", f.Seq, f.Frame[0])
		}
	}

	// One request journalled and queued, its response received and
	// journalled, and one more response delivered but not consumed.
	iid := before.Intervals[len(before.Intervals)-1].ID
	inSeq, outSeq := old.Resume.Delivered[peer]+1, old.Resume.Peers[peer].NextSeq+1
	tag := []ids.AID{ids.AID(worker + 100)}
	req := msg.Data(worker, server, iid, tag, rpc.Request{ReplyTo: worker, Method: rpc.MethodPrint, Arg: -3, Seq: 77, CallID: 1 << 40})
	resp := msg.Data(server, worker, ids.IntervalID{Proc: server, Seq: 1, Epoch: 1}, tag, rpc.Response{Seq: 77, CallID: 1 << 40, Result: -9})
	resp.SrcNode, resp.SrcSeq = peer, inSeq
	late := msg.Data(server, worker, ids.IntervalID{}, nil, rpc.Response{Seq: 78})
	for _, m := range []*msg.Message{req, resp, late} {
		if enc := encode(t, m); enc[0] == 3 || len(enc) > 64 {
			t.Fatalf("%v encodes to a %d-byte version-%d frame: not the binary payload form", m, len(enc), enc[0])
		}
	}
	s.JournalAppend(worker, &journal.Entry{Kind: journal.KindSend, Msg: req, Interval: iid})
	s.FrameQueued(peer, outSeq, encode(t, req))
	if err := s.Delivered(peer, inSeq, encode(t, resp)); err != nil {
		t.Fatal(err)
	}
	s.JournalAppend(worker, &journal.Entry{Kind: journal.KindRecv, Msg: resp, Interval: iid})
	if err := s.Delivered(peer, inSeq+1, encode(t, late)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, mixed := open()
	defer s2.Close()
	after := mixed.Restore[worker]
	if after == nil || len(after.Entries) != len(before.Entries)+2 {
		t.Fatalf("worker journal: %d entries before, want 2 more after, got %+v", len(before.Entries), after)
	}
	for i, e := range before.Entries {
		if got, want := entryString(after.Entries[i]), entryString(e); got != want {
			t.Fatalf("gob-era entry %d changed under the append:\n got %s\nwant %s", i, got, want)
		}
	}
	tail := after.Entries[len(before.Entries):]
	if !reflect.DeepEqual(tail[0].Msg, req) || !reflect.DeepEqual(tail[1].Msg, resp) {
		t.Fatalf("appended entries folded to\n %s\n %s\nwant\n %s\n %s",
			entryString(tail[0]), entryString(tail[1]), msgString(req), msgString(resp))
	}
	frames := mixed.Resume.Peers[peer].Frames
	if len(frames) != len(oldFrames)+1 || mixed.Resume.Peers[peer].NextSeq != outSeq {
		t.Fatalf("unacked frames: %d before, %d after, nextseq %d, want one more and %d", len(oldFrames), len(frames), mixed.Resume.Peers[peer].NextSeq, outSeq)
	}
	for i, f := range oldFrames {
		if frames[i].Seq != f.Seq || string(frames[i].Frame) != string(f.Frame) {
			t.Fatalf("gob-era frame seq=%d changed under the append", f.Seq)
		}
	}
	if last := frames[len(frames)-1]; last.Seq != outSeq || string(last.Frame) != string(encode(t, req)) {
		t.Fatalf("appended frame folded to seq=%d %x", last.Seq, last.Frame)
	}
	// The journalled response is consumed; the late one joins the
	// recorded unconsumed inbox, after it.
	if len(mixed.Redeliver) != len(old.Redeliver)+1 {
		t.Fatalf("redeliver: %d before, %d after, want one more", len(old.Redeliver), len(mixed.Redeliver))
	}
	for i, m := range old.Redeliver {
		if got, want := msgString(mixed.Redeliver[i]), msgString(m); got != want {
			t.Fatalf("gob-era inbox message %d changed under the append:\n got %s\nwant %s", i, got, want)
		}
	}
	late.SrcNode, late.SrcSeq = peer, inSeq+1
	if got := mixed.Redeliver[len(mixed.Redeliver)-1]; !reflect.DeepEqual(got, late) {
		t.Fatalf("appended inbox message folded to %s, want %s", msgString(got), msgString(late))
	}
	if len(mixed.Resend) != len(old.Resend) || mixed.Skipped != 0 {
		t.Fatalf("resend %d → %d, skipped %d: the appended send did not pair with its frame, or a frame no longer decodes",
			len(old.Resend), len(mixed.Resend), mixed.Skipped)
	}
}
