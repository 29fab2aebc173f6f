package harness

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/cluster"
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/faultwire"
	"github.com/hope-dist/hope/internal/node"
	"github.com/hope-dist/hope/internal/oracle"
	"github.com/hope-dist/hope/internal/rpc"
)

// hoped is the test binary's one build of cmd/hoped, shared by every
// test and removed by TestMain.
var hoped struct {
	once     sync.Once
	dir, bin string
	err      error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if hoped.dir != "" {
		os.RemoveAll(hoped.dir)
	}
	os.Exit(code)
}

// buildHoped compiles cmd/hoped on first use and returns its path.
func buildHoped(t *testing.T) string {
	t.Helper()
	hoped.once.Do(func() {
		if hoped.dir, hoped.err = os.MkdirTemp("", "harness-hoped-*"); hoped.err != nil {
			return
		}
		hoped.bin = filepath.Join(hoped.dir, "hoped")
		if out, err := exec.Command("go", "build", "-o", hoped.bin, "../../cmd/hoped").CombinedOutput(); err != nil {
			hoped.err = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if hoped.err != nil {
		t.Fatalf("building hoped: %v", hoped.err)
	}
	return hoped.bin
}

// TestRunStorm drives the full orchestrator end to end at a small scale:
// two durable hoped nodes, a generated fault plan with severs,
// partitions, armed corruption, and a SIGKILL+restart, all inside one
// run. Any invariant violation surfaces as an error carrying the seed
// and plan.
func TestRunStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes; skipped in -short")
	}
	res, err := Run(Config{
		Setup: Setup{Seed: 7, Nodes: 2, HopedBin: buildHoped(t), Reports: 32, Log: testWriter{t}},
		Span:  time.Second,
		Kill:  true,
	})
	if err != nil {
		t.Fatalf("storm failed (replay with seed %d):\n%s\nerror: %v", res.Plan.Seed, res.Plan, err)
	}
	if res.Recovered == "" {
		t.Fatal("plan included a kill but no recovery was recorded")
	}
	t.Logf("storm ok: elapsed=%v rollbacks=%d wire=%v", res.Elapsed, res.Rollbacks, res.Wire)
}

// TestPermKillStorm drives a storm whose victim never comes back. The
// run can only quiesce if the liveness layer works end to end: the
// client's failure detector must declare the victim dead, drop its
// resend queue, and (directly or via the speculation lease) force every
// assumption stranded by the death to resolve. The oracle then checks
// that no surviving interval is still speculative on a dead-owned
// assumption. Without the liveness layer this test hangs, not fails.
func TestPermKillStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes; skipped in -short")
	}
	res, err := Run(Config{
		Setup:    Setup{Seed: 10, Nodes: 2, HopedBin: buildHoped(t), Reports: 24, Log: testWriter{t}},
		Span:     time.Second,
		PermKill: true,
	})
	if err != nil {
		t.Fatalf("perm-kill storm failed (replay with seed %d):\n%s\nerror: %v", res.Plan.Seed, res.Plan, err)
	}
	if res.PermKilled == 0 {
		t.Fatal("plan included a permanent kill but no node died")
	}
	if res.Recovered != "" {
		t.Fatalf("permanently killed node reported a recovery: %s", res.Recovered)
	}
	t.Logf("perm-kill storm ok: victim=%d elapsed=%v rollbacks=%d autodenied=%d wire=%v",
		res.PermKilled, res.Elapsed, res.Rollbacks, res.AutoDenied, res.Wire)
}

// TestKillWhilePartitioned scripts the nastiest single-node scenario by
// hand instead of drawing it from a plan: the server is partitioned from
// the client (both proxy directions blocked), SIGKILLed and restarted
// from its WAL while still unreachable, and only then healed. The
// workload must finish with the committed layout unchanged — recovery
// plus the partition must not lose, duplicate, or reorder a single
// committed print, and the client must never notice more than a stall.
func TestKillWhilePartitioned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes; skipped in -short")
	}
	bin := buildHoped(t)
	dataDir := t.TempDir()

	cn, tap, err := startClient(node.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close(0)
	client, eng := cn.Wire(), cn.Engine()

	out, err := faultwire.NewProxy(faultwire.ProxyConfig{Listen: "127.0.0.1:0", Target: client.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	args := []string{
		"--node", "1", "--serve", "printserver",
		"--data-dir", dataDir, "--fsync", "always",
		"--peer", "0=" + out.Addr(),
	}
	child, boot, err := StartHoped(bin, append([]string{"--listen", "127.0.0.1:0"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	serverAddr, serverPID := boot.Addr, boot.PID

	in, err := faultwire.NewProxy(faultwire.ProxyConfig{Listen: "127.0.0.1:0", Target: serverAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	client.SetPeer(1, in.Addr())

	const pageSize, reports = 3, 48
	var mu sync.Mutex
	var rep rpc.PageReport
	done := 0
	worker, err := eng.SpawnRoot(rpc.StreamedWorker(serverPID, pageSize, reports, func(r rpc.PageReport) {
		mu.Lock()
		rep, done = r, done+1
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}

	// Let a visible slice of the workload commit, then cut the link in
	// both directions and SIGKILL the server behind the partition.
	deadline := time.Now().Add(30 * time.Second)
	for client.WireStats().FramesIn < 16 {
		if time.Now().After(deadline) {
			t.Fatalf("server made no progress: wire=%v", client.WireStats())
		}
		time.Sleep(time.Millisecond)
	}
	in.Block()
	out.Block()
	if err := child.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	child.Wait()

	// Restart from the WAL while still partitioned: the node must come
	// back on its own, without reaching the client.
	child2, boot2, err := StartHoped(bin, append([]string{"--listen", serverAddr}, args...))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		child2.Process.Signal(os.Interrupt)
		child2.Wait()
	}()
	if boot2.Recovered == "" {
		t.Fatal("restart behind the partition printed no HOPED RECOVERED line")
	}
	if boot2.PID != serverPID {
		t.Fatalf("server PID changed across restart: %v -> %v", serverPID, boot2.PID)
	}
	t.Logf("recovered while partitioned: %s", boot2.Recovered)

	// Hold the partition long enough for both sides to retry into it,
	// then heal and let the resend machinery finish the workload.
	time.Sleep(100 * time.Millisecond)
	in.Unblock()
	out.Unblock()

	// Quiescence deadline, starvation-aware: on a CPU-starved host the
	// healed rollback storm drains slowly but steadily, and a fixed
	// deadline mistakes slow for stuck. Fail only when no observable
	// progress (frames moving, intervals resolving, worker restarting)
	// happens for a full stall window — with a generous hard cap so a
	// genuine wedge still fails rather than hanging the suite.
	const stallWindow = 30 * time.Second
	hardCap := time.Now().Add(5 * time.Minute)
	lastProgress := time.Now()
	var lastSig [4]uint64
	for {
		st := worker.Snapshot()
		mu.Lock()
		completed := done > 0
		mu.Unlock()
		if completed && st.Completed && st.AllDefinite && client.Inflight() == 0 {
			break
		}
		ws := client.WireStats()
		sig := [4]uint64{ws.FramesIn, ws.FramesOut, uint64(st.Intervals), uint64(st.Restarts)}
		if sig != lastSig {
			lastSig, lastProgress = sig, time.Now()
		}
		if time.Since(lastProgress) > stallWindow || time.Now().After(hardCap) {
			t.Fatalf("no quiescence after heal (stalled %v): worker=%+v inflight=%d wire=%v",
				time.Since(lastProgress).Round(time.Second), st, client.Inflight(), ws)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if rep.Totals != reports {
		t.Fatalf("worker printed %d totals, want %d", rep.Totals, reports)
	}
	mu.Unlock()

	// Committed layout unchanged: the server's line counter must equal a
	// sequential replay, exactly as if the partition and crash never
	// happened.
	want := oracle.ExpectedFinalLine(pageSize, reports) + 1
	line, err := rpc.Probe(eng, serverPID, rpc.MethodPrint, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if line != want {
		t.Fatalf("server final line = %d, want %d: committed layout changed across partitioned crash", line, want)
	}
	if v := eng.Violations(); v != 0 {
		t.Fatalf("%d protocol violations", v)
	}
	if bad := tap.Violations(); len(bad) != 0 {
		t.Fatalf("FIFO inversions at delivery: %v", bad)
	}
	if refused := in.Stats().Refused + out.Stats().Refused; refused == 0 {
		t.Error("partition was never exercised: no refused dials on either proxy")
	}
	t.Logf("healed run: restarts=%d wire=%v in=%v out=%v",
		worker.Snapshot().Restarts, client.WireStats(), in.Stats(), out.Stats())
}

// TestParseHopedLines pins the HOPED-line parser against the example
// lines in cmd/hoped's doc comment, and checks that a malformed line is
// an error here instead of a storm timeout.
func TestParseHopedLines(t *testing.T) {
	cases := []struct {
		line    string
		want    hopedLine
		wantErr string // a substring of the error; "" = the line parses
	}{
		{line: "HOPED RECOVERED node=1 records=412 procs=1 redeliver=3 resend=0 unacked=2 denied=0 torn=0 in 1.2ms from=389 tail=23 ckpt",
			want: hopedLine{kind: "RECOVERED"}},
		{line: "HOPED VIEW node=2 epoch=5 live=0,1,2 dead=3",
			want: hopedLine{kind: "VIEW", view: cluster.ViewLine{Node: 2, Epoch: 5, Live: []int{0, 1, 2}, Dead: []int{3}}}},
		{line: "HOPED READY node=1 addr=127.0.0.1:7101 pid=281474976710657",
			want: hopedLine{kind: "READY", addr: "127.0.0.1:7101", pid: 281474976710657}},
		{line: "HOPED STABLE node=1 epoch=5 frontier=0:41,1:17",
			want: hopedLine{kind: "STABLE", epoch: 5, frontier: "0:41,1:17"}},
		{line: "HOPED ADOPTED node=2 from=3 count=5",
			want: hopedLine{kind: "ADOPTED", from: 3, count: 5}},
		{line: "HOPED TRANSPLANTED node=2 from=3 procs=1 map=844424930131970:562949953421314",
			want: hopedLine{kind: "TRANSPLANTED", from: 3, count: 1,
				pairs: []core.TransplantPair{{Old: 844424930131970, New: 562949953421314}}}},
		{line: "HOPED TRANSPLANTED node=2 from=3 procs=0 map=-",
			want: hopedLine{kind: "TRANSPLANTED", from: 3}},
		{line: "HOPED EVICTED node=2 epoch=7", want: hopedLine{kind: "EVICTED"}},
		{line: "not an announcement"},

		{line: "HOPED READY node=1 addr=127.0.0.1:7101 pid=x1", wantErr: "bad pid="},
		{line: "HOPED READY node=1 pid=281474976710657", wantErr: "no addr="},
		{line: "HOPED TRANSPLANTED node=2 from=3 procs=2 map=844424930131970:562949953421314", wantErr: "procs=2 but 1 map pairs"},
		{line: "HOPED ADOPTED node=2 from=three count=5", wantErr: "bad from="},
		{line: "HOPED STABLE node=1 epoch=5", wantErr: "no frontier="},
	}
	for _, c := range cases {
		got, ok, err := parseHopedLine(c.line)
		switch {
		case c.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%q: error %v, want one containing %q", c.line, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%q: %v", c.line, err)
		case ok != (c.want.kind != ""):
			t.Errorf("%q: ok = %v", c.line, ok)
		case !reflect.DeepEqual(got, c.want):
			t.Errorf("%q: parsed %+v, want %+v", c.line, got, c.want)
		}
	}
}

// testWriter adapts t.Logf so harness narration lands in test output.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
