package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/durable"
	"github.com/hope-dist/hope/internal/harness"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/oracle"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/wire"
)

// TestCrashRestartRecovery is the end-to-end durability check: a durable
// hoped print server is SIGKILLed in the middle of an optimistic
// streamed pagination workload, restarted on the same --data-dir and
// address, and the workload must still commit with a byte-for-byte
// sequential page layout — no print lost, duplicated, or reordered
// across the crash.
func TestCrashRestartRecovery(t *testing.T) {
	crashRestartRecovery(t)
}

// TestCrashRestartRecoveryCheckpointed is the same crash, but with
// --checkpoint-every 4 the server writes a multi-record checkpoint
// bracket roughly every fourth WAL append, so the SIGKILL has a real
// chance of landing mid-bracket. A torn bracket must be discarded and
// recovery fall back to the previous checkpoint (or full replay) with
// the same byte-identical committed page layout.
func TestCrashRestartRecoveryCheckpointed(t *testing.T) {
	crashRestartRecovery(t, "--checkpoint-every", "4")
}

func crashRestartRecovery(t *testing.T, extraArgs ...string) {
	if testing.Short() {
		t.Skip("builds and kills child processes; skipped in -short")
	}
	bin := buildHoped(t)
	dataDir := t.TempDir()

	// The client node and engine live in the test process and survive the
	// server's crash, exactly like a real remote caller would.
	node, err := wire.NewNode(wire.NodeConfig{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	args := []string{
		"--node", "1", "--serve", "printserver",
		"--data-dir", dataDir, "--fsync", "always",
		"--peer", "0=" + node.Addr(),
	}
	args = append(args, extraArgs...)
	child, boot := startHoped(t, bin, append([]string{"--listen", "127.0.0.1:0"}, args...))
	if boot.Recovered != "" {
		t.Fatalf("fresh data dir reported recovery: %s", boot.Recovered)
	}
	serverAddr, serverPID := boot.Addr, boot.PID
	node.SetPeer(1, serverAddr)

	ctrace := trace.NewRecorderCap(4000)
	eng := core.NewEngine(core.Config{Transport: node, PIDBase: wire.PIDBase(0), Tracer: ctrace})
	defer eng.Shutdown()

	// pageSize 3 makes roughly every other report mispredict, so the
	// crash lands in a workload that is already rolling back and
	// re-streaming — the hardest interleaving recovery has to get right.
	// (64 reports is the scale the streamed workload is validated at.)
	const pageSize, reports = 3, 64
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

	// Let the server commit a visible slice of the workload, then kill it
	// without ceremony — SIGKILL, mid-stream, no drain, no WAL close.
	waitFor(t, 30*time.Second, "server made progress", func() bool {
		return node.WireStats().FramesIn >= 16
	})
	if err := child.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	child.Wait()

	// AID frames are consumed by the AID table that steps them, so what
	// recovery redelivers is process-bound traffic only.
	ex, err := durable.ReadExtract(dataDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	orphans := ex.Unconsumed
	for _, m := range orphans {
		switch m.Kind {
		case msg.KindGuess, msg.KindAffirm, msg.KindDeny, msg.KindRetract, msg.KindCutProbe, msg.KindProbe:
			t.Fatalf("recovery would redeliver AID frame %v", m)
		}
	}

	// Restart on the same address and data dir. The client's transport
	// redials with backoff on its own; nothing on this side is touched.
	child2, boot2 := startHoped(t, bin, append([]string{"--listen", serverAddr}, args...))
	defer func() {
		child2.Process.Signal(os.Interrupt)
		child2.Wait()
	}()
	if boot2.Recovered == "" {
		t.Fatal("restarted server printed no HOPED RECOVERED line")
	}
	t.Logf("restart: %s", boot2.Recovered)
	if want := fmt.Sprintf(" redeliver=%d ", len(orphans)); !strings.Contains(boot2.Recovered, want) {
		t.Fatalf("RECOVERED line %q, want%s(the unconsumed frames read before the restart)", boot2.Recovered, want)
	}
	if boot2.PID != serverPID {
		t.Fatalf("server PID changed across restart: %v -> %v", serverPID, boot2.PID)
	}

	// The workload must reach distributed quiescence: every report
	// delivered, the worker's whole history definite, nothing unacked.
	quiesced := func() bool {
		st := worker.Snapshot()
		mu.Lock()
		completed := done > 0
		mu.Unlock()
		return completed && st.AllDefinite && st.Completed && node.Inflight() == 0
	}
	deadline := time.Now().Add(60 * time.Second)
	for !quiesced() {
		if time.Now().After(deadline) {
			mu.Lock()
			d := done
			mu.Unlock()
			for _, e := range ctrace.Events() {
				fmt.Fprintln(os.Stderr, "CLIENT", e.String())
			}
			// Forensics: SIGQUIT dumps the server's goroutines to stderr
			// (a wedged server is indistinguishable from a protocol bug
			// without them), and the WAL is preserved for waldump.
			child2.Process.Signal(syscall.SIGQUIT)
			time.Sleep(2 * time.Second)
			if keep, err := os.MkdirTemp("", "hoped-noquiesce-"); err == nil {
				exec.Command("cp", "-r", dataDir, keep).Run()
				t.Logf("WAL preserved under %s", keep)
			}
			t.Fatalf("no quiescence after restart: done=%d inflight=%d wire=%v",
				d, node.Inflight(), node.WireStats())
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if rep.Totals != reports {
		t.Fatalf("worker printed %d totals, want %d", rep.Totals, reports)
	}
	mu.Unlock()

	// Ground truth, same as the wire benchmark: the server's committed
	// line counter must equal a sequential replay (+1 for the probe's own
	// print). A duplicated delivery overshoots, a lost one undershoots.
	want := oracle.ExpectedFinalLine(pageSize, reports) + 1
	line, err := probeLine(eng, serverPID)
	if err != nil {
		t.Fatal(err)
	}
	if line != want {
		t.Fatalf("server final line = %d, want %d: prints lost, duplicated, or reordered across the crash", line, want)
	}
	if v := eng.Violations(); v != 0 {
		t.Fatalf("%d protocol violations", v)
	}
	t.Logf("recovered run: restarts=%d wire=%v", worker.Snapshot().Restarts, node.WireStats())
}

// TestRestartCleanShutdown: a SIGTERM'd durable node must come back with
// its state intact too — the WAL is the only source of truth, there is
// no separate clean-shutdown snapshot path.
func TestRestartCleanShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes; skipped in -short")
	}
	bin := buildHoped(t)
	dataDir := t.TempDir()

	node, err := wire.NewNode(wire.NodeConfig{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	args := []string{
		"--node", "1", "--serve", "printserver",
		"--data-dir", dataDir, "--fsync", "interval",
		"--peer", "0=" + node.Addr(),
	}
	child, boot := startHoped(t, bin, append([]string{"--listen", "127.0.0.1:0"}, args...))
	node.SetPeer(1, boot.Addr)

	eng := core.NewEngine(core.Config{Transport: node, PIDBase: wire.PIDBase(0)})
	defer eng.Shutdown()

	// Print a few lines, remember where the counter stood, shut down
	// politely (SIGTERM drains and closes the WAL), restart, and check
	// the counter continues from the same place.
	var last int
	for i := 0; i < 3; i++ {
		if last, err = probeLine(eng, boot.PID); err != nil {
			t.Fatal(err)
		}
	}
	child.Process.Signal(os.Interrupt)
	if err := child.Wait(); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}

	child2, boot2 := startHoped(t, bin, append([]string{"--listen", boot.Addr}, args...))
	defer func() {
		child2.Process.Signal(os.Interrupt)
		child2.Wait()
	}()
	if boot2.Recovered == "" {
		t.Fatal("restart after clean shutdown printed no HOPED RECOVERED line")
	}
	line, err := probeLine(eng, boot2.PID)
	if err != nil {
		t.Fatal(err)
	}
	// The print server's counter grows without bound (newpage is the
	// client's call, and this test never makes it), so the restarted
	// counter must be exactly one past where the shutdown left it.
	if want := last + 1; line != want {
		t.Fatalf("line counter after clean restart = %d, want %d (state lost or duplicated)", line, want)
	}
}

// buildHoped compiles cmd/hoped once per test into a temp dir.
func buildHoped(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hoped")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building hoped: %v\n%s", err, out)
	}
	return bin
}

// startHoped launches a hoped child through the chaos storms' launcher,
// which parses its boot lines (the RECOVERED line, if any, arrives
// strictly before READY).
func startHoped(t *testing.T, bin string, args []string) (*exec.Cmd, harness.BootInfo) {
	t.Helper()
	child, info, err := harness.StartHoped(bin, args)
	if err != nil {
		t.Fatal(err)
	}
	return child, info
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// probeLine issues one pessimistic MethodPrint call from a throwaway
// definite process and returns the printed line number.
func probeLine(eng *core.Engine, server ids.PID) (int, error) {
	return rpc.Probe(eng, server, rpc.MethodPrint, 30*time.Second)
}
