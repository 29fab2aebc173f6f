package node

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/oracle"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/wire"
)

// lockedBuffer collects a node's HOPED lines; the node writes them from
// several goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// A page never fills, so no guess is denied: these tests check how a
// node is composed, and keep the denial path's open races (ROADMAP
// item 1) out of it; the chaos storms drive that path.
const pageSize, reports = 1 << 10, 12

// runJob streams one pagination job from client to the print server at
// server, waits for distributed quiescence, checks the server's line
// counter against the sequential replay, and starts the server on a
// fresh page for the next job.
func runJob(t *testing.T, client *Node, server ids.PID) {
	t.Helper()
	eng := client.Engine()
	var mu sync.Mutex
	done := 0
	worker, err := eng.SpawnRoot(rpc.StreamedWorker(server, pageSize, reports, func(rpc.PageReport) {
		mu.Lock()
		done++
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := worker.Snapshot()
		mu.Lock()
		completed := done > 0
		mu.Unlock()
		if completed && st.Completed && st.AllDefinite && client.Wire().Inflight() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no quiescence: worker=%+v inflight=%d wire=%v", st, client.Wire().Inflight(), client.Wire().WireStats())
		}
		time.Sleep(time.Millisecond)
	}
	want := oracle.ExpectedFinalLine(pageSize, reports) + 1 // the probe's own print
	line, err := rpc.Probe(eng, server, rpc.MethodPrint, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if line != want {
		t.Fatalf("server final line = %d, want %d: prints lost, duplicated, or reordered", line, want)
	}
	if _, err := rpc.Probe(eng, server, rpc.MethodNewPage, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if v := eng.Violations(); v != 0 {
		t.Fatalf("%d protocol violations", v)
	}
}

// startPair starts a print server (node 1) and a client (node 0) over
// loopback. Each names the other as a static peer at Start, so with the
// watermark both run stability rounds over the pair; the server learns
// the client's ephemeral address once the client is up.
func startPair(t *testing.T, server Config, watermark wire.WatermarkMode) (*Node, *Node) {
	t.Helper()
	server.ID, server.Listen, server.Serve = 1, "127.0.0.1:0", "printserver"
	server.Peers, server.Watermark = map[int]string{0: ""}, watermark
	sn, err := Start(server)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := Start(Config{Listen: "127.0.0.1:0", Peers: map[int]string{1: sn.Wire().Addr()}, Watermark: watermark})
	if err != nil {
		sn.Close(0)
		t.Fatal(err)
	}
	sn.Wire().SetPeer(0, cn.Wire().Addr())
	return sn, cn
}

// TestTwoNodes runs the pagination workload from one node against the
// other's print-server root, with and without the commit watermark.
func TestTwoNodes(t *testing.T) {
	for _, mode := range []wire.WatermarkMode{wire.WatermarkOff, wire.WatermarkOn} {
		t.Run("watermark "+mode.String(), func(t *testing.T) {
			out := &lockedBuffer{}
			sn, cn := startPair(t, Config{Out: out}, mode)
			defer sn.Close(0)
			defer cn.Close(0)
			if want := fmt.Sprintf("HOPED READY node=1 addr=%s pid=%d\n", sn.Wire().Addr(), uint64(sn.Root())); !strings.HasPrefix(out.String(), want) {
				t.Fatalf("server wrote %q, want %q", out.String(), want)
			}
			runJob(t, cn, sn.Root())
			if mode == wire.WatermarkOn && !strings.Contains(out.String(), "HOPED STABLE node=1 epoch=0 frontier=") {
				t.Fatalf("watermark on, but the server announced no stable frontier:\n%s", out)
			}
		})
	}
}

// TestDurableReopen closes a durable server between two jobs and
// reopens it on the same directory and address: the reopened node
// announces its recovery, keeps its root PID, and serves the second job
// with the sequential layout.
func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()
	out := &lockedBuffer{}
	sn, cn := startPair(t, Config{DataDir: dir, Fsync: "always", Out: out}, wire.WatermarkOff)
	defer cn.Close(0)
	runJob(t, cn, sn.Root())
	root, addr := sn.Root(), sn.Wire().Addr()
	sn.Close(2 * time.Second)
	if strings.Contains(out.String(), "HOPED RECOVERED") {
		t.Fatalf("fresh data dir reported recovery:\n%s", out)
	}

	out2 := &lockedBuffer{}
	sn2, err := Start(Config{ID: 1, Listen: addr, Serve: "printserver", Peers: map[int]string{0: cn.Wire().Addr()},
		DataDir: dir, Watermark: wire.WatermarkOff, Out: out2})
	if err != nil {
		t.Fatal(err)
	}
	defer sn2.Close(0)
	lines := strings.Split(strings.TrimSpace(out2.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "HOPED RECOVERED node=1 ") ||
		!strings.HasPrefix(lines[len(lines)-1], "HOPED READY node=1 ") {
		t.Fatalf("reopened node wrote %q, want HOPED RECOVERED then HOPED READY", out2)
	}
	if sn2.Root() != root {
		t.Fatalf("root PID changed across reopen: %v -> %v", root, sn2.Root())
	}
	runJob(t, cn, sn2.Root())
}

// TestOwnerRule pins each caller's lease-owner rule. The ring sends an
// AID minted by the peer to this node and every other AID to the peer;
// the corpse's process was reborn on the adopter.
func TestOwnerRule(t *testing.T) {
	const self, peer, corpse, adopterNode = 1, 2, 3, 4
	mint := func(node int) ids.AID { return ids.AID(wire.PIDBase(node) + 7) }
	ring := func(a ids.AID) (int, uint64, bool) {
		if wire.NodeOf(a.PID()) == peer {
			return self, 1, true
		}
		return peer, 1, true
	}
	adopter := func(pid ids.PID) (ids.PID, bool) {
		if wire.NodeOf(pid) == corpse {
			return wire.PIDBase(adopterNode) + 9, true
		}
		return 0, false
	}
	health := func(n int) wire.PeerHealth {
		h := wire.PeerHealth{Node: n, State: wire.PeerAlive, LastHeard: time.Unix(int64(n), 0)}
		if n == corpse {
			h.State = wire.PeerDead
		}
		return h
	}
	local := core.OwnerStatus{}
	alive := func(n int) core.OwnerStatus { return core.OwnerStatus{Remote: true, LastHeard: time.Unix(int64(n), 0)} }
	dead := core.OwnerStatus{Remote: true, Dead: true, LastHeard: time.Unix(corpse, 0)}
	externalRing := func(ids.AID) (int, uint64, bool) { return 0, 0, false }

	cases := []struct {
		caller                 string
		cfg                    Config
		mintedSelf, mintedPeer core.OwnerStatus
		mintedCorpse           core.OwnerStatus
	}{
		{"storm client", Config{ID: self, DeadAfter: time.Second, Lease: time.Second},
			local, alive(peer), dead},
		{"churn client", Config{ID: self, DeadAfter: time.Second, Lease: time.Second, Ring: externalRing},
			local, alive(peer), alive(adopterNode)},
		{"hoped", Config{ID: self, SeedNode: true, DeadAfter: time.Second, Lease: time.Second},
			local, alive(peer), dead},
		{"hoped --data-root", Config{ID: self, SeedNode: true, DeadAfter: time.Second, Lease: time.Second, DataRoot: "/d"},
			alive(peer), local, alive(peer)},
	}
	for _, tc := range cases {
		rule := ruleFor(&tc.cfg)
		for _, c := range []struct {
			minter int
			want   core.OwnerStatus
		}{{self, tc.mintedSelf}, {peer, tc.mintedPeer}, {corpse, tc.mintedCorpse}} {
			if got := rule.status(mint(c.minter), ring, adopter, health); got != c.want {
				t.Errorf("%s: AID minted by node %d: status %+v, want %+v", tc.caller, c.minter, got, c.want)
			}
		}
	}
}

// affirmTracer records, per process, the interval its first Affirm ran
// in: a reaped child's surviving interval.
type affirmTracer struct {
	mu  sync.Mutex
	iid map[ids.PID]ids.IntervalID
}

func (a *affirmTracer) Emit(e trace.Event) {
	if e.Kind != trace.Primitive || !strings.HasPrefix(e.Detail, "affirm") {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.iid[e.PID]; !ok {
		a.iid[e.PID] = e.Interval
	}
}

func (a *affirmTracer) of(pid ids.PID) ids.IntervalID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.iid[pid]
}

// TestRestartKeepsReapedChildren restarts a durable client whose live
// parent has reaped children, with and without checkpoints. The WAL
// brings the children back as tombstones: the replayed spawns run no
// body, so the server prints nothing twice and loses nothing; a
// Rollback aimed at a child's surviving interval is still a violation;
// and no PID or AID the first run issued names anything new.
func TestRestartKeepsReapedChildren(t *testing.T) {
	for _, every := range []int{-1, 16} {
		t.Run(fmt.Sprintf("checkpoint-every=%d", every), func(t *testing.T) {
			restartKeepsReapedChildren(t, every)
		})
	}
}

func restartKeepsReapedChildren(t *testing.T, checkpointEvery int) {
	const k = 5 // children per round
	sn, err := Start(Config{ID: 1, Listen: "127.0.0.1:0", Serve: "printserver", Peers: map[int]string{0: ""}})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close(0)
	server := sn.Root()
	dir := t.TempDir()
	tr := &affirmTracer{iid: make(map[ids.PID]ids.IntervalID)}
	clientCfg := Config{Listen: "127.0.0.1:0", Peers: map[int]string{1: sn.Wire().Addr()},
		DataDir: dir, Fsync: "none", CheckpointEvery: checkpointEvery, Tracer: tr}
	start := func(out *lockedBuffer) *Node {
		t.Helper()
		cfg := clientCfg
		cfg.Out = out
		cn, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sn.Wire().SetPeer(0, cn.Wire().Addr())
		return cn
	}

	// The parent spawns k printing children per round, each affirming
	// the assumption the parent guessed, then waits for a message.
	var mu sync.Mutex
	ran := 0                            // child bodies started
	issued := make(map[ids.PID]int)     // child PID or AID → round that issued it
	children := make(map[int][]ids.PID) // round → children
	parent := func(ctx *core.Ctx) error {
		seq := 0
		for round := 0; ; round++ {
			for i := 0; i < k; i++ {
				x := ctx.AidInit()
				printSeq := seq
				seq++
				child := ctx.Spawn(func(w *core.Ctx) error {
					mu.Lock()
					ran++
					mu.Unlock()
					if _, err := rpc.Call(w, server, rpc.MethodPrint, 0, printSeq); err != nil {
						return err
					}
					w.Affirm(x)
					return nil
				})
				mu.Lock()
				if _, seen := issued[child]; !seen {
					children[round] = append(children[round], child)
				}
				for _, id := range []ids.PID{child, ids.PID(x)} {
					if r, seen := issued[id]; seen && r != round {
						mu.Unlock()
						t.Errorf("round %d re-issued %v from round %d", round, id, r)
						return nil
					}
					issued[id] = round
				}
				mu.Unlock()
				ctx.Guess(x)
			}
			if _, _, err := ctx.Recv(); err != nil {
				return err
			}
		}
	}
	// settled waits until round's children have all run and been reaped
	// and the parent is definite again.
	settled := func(cn *Node, p *core.Process, round int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			mu.Lock()
			kids := append([]ids.PID(nil), children[round]...)
			mu.Unlock()
			done := len(kids) == k && p.Snapshot().AllDefinite
			for _, c := range kids {
				done = done && cn.Engine().Process(c) == nil
			}
			if done && cn.Wire().Inflight() == 0 {
				return
			}
			if t.Failed() || time.Now().After(deadline) {
				t.Fatalf("round %d never settled: children %v, parent %+v", round, kids, p.Snapshot())
			}
			time.Sleep(time.Millisecond)
		}
	}
	printed := func() int {
		t.Helper()
		line, err := rpc.Probe(sn.Engine(), server, rpc.MethodPrint, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return line
	}

	cn := start(&lockedBuffer{})
	p, err := cn.Engine().SpawnRoot(parent)
	if err != nil {
		t.Fatal(err)
	}
	settled(cn, p, 0)
	before := printed()
	cn.Close(2 * time.Second)

	out := &lockedBuffer{}
	cn = start(out)
	defer cn.Close(0)
	if want := fmt.Sprintf(" reaped=%d", k); !strings.Contains(out.String(), want) {
		t.Fatalf("restart did not recover %d tombstones:\n%s", k, out)
	}
	p2, err := cn.Engine().SpawnRoot(parent)
	if err != nil {
		t.Fatal(err)
	}
	if p2.PID() != p.PID() {
		t.Fatalf("parent re-drew %v, want its pre-restart %v", p2.PID(), p.PID())
	}
	settled(cn, p2, 0)
	if got := printed(); got != before+1 {
		t.Fatalf("server line %d after the restart, want %d: a reaped child re-ran", got, before+1)
	}
	mu.Lock()
	if ran != k {
		t.Errorf("%d child bodies ran, want %d", ran, k)
	}
	first := children[0][0]
	mu.Unlock()

	eng := cn.Engine()
	iid := tr.of(first)
	if !iid.Valid() {
		t.Fatalf("no affirm traced for child %v", first)
	}
	v := eng.Violations()
	eng.Net().Send(msg.Rollback(ids.AID(p.PID()), iid))
	deadline := time.Now().Add(10 * time.Second)
	for eng.Violations() == v {
		if time.Now().After(deadline) {
			t.Fatalf("rollback of reaped child %v's surviving interval %v: no violation after the restart", first, iid)
		}
		time.Sleep(time.Millisecond)
	}

	// Round two: fresh children, fresh PIDs, every print once.
	if _, err := sn.Engine().SpawnRoot(func(ctx *core.Ctx) error {
		ctx.Send(p.PID(), "go")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	settled(cn, p2, 1)
	if got := printed(); got != before+1+k+1 {
		t.Fatalf("server line %d after round two, want %d", got, before+1+k+1)
	}
	if got := eng.Violations() - v; got != 1 {
		t.Fatalf("%d violations beyond the probed rollback, want 0", got-1)
	}
}

// TestClosingNodeBuriesNoOne: a death handler that starts once Close
// has begun adopts and denies nothing, since the engine and the WAL it
// would write to are shutting down.
func TestClosingNodeBuriesNoOne(t *testing.T) {
	log := &lockedBuffer{}
	n, err := Start(Config{Listen: "127.0.0.1:0", Log: log})
	if err != nil {
		t.Fatal(err)
	}
	n.Close(0)
	n.buried(5, nil, "node 5 declared dead")
	if strings.Contains(log.String(), "node 5") {
		t.Fatalf("a closed node buried node 5:\n%s", log)
	}
}
