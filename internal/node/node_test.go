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
	"github.com/hope-dist/hope/internal/oracle"
	"github.com/hope-dist/hope/internal/rpc"
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
