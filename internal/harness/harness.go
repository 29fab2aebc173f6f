// Package harness orchestrates the multi-node chaos storm: N durable
// hoped server processes behind fault-injecting TCP proxies
// (internal/faultwire), a client engine driving one randomized
// pagination workload per server, and a seed-deterministic fault plan —
// severed connections, partitions, armed bit flips, and one
// SIGKILL-plus-restart — executed against them mid-run.
//
// When the storm ends the harness heals every partition, severs every
// connection once more (a corrupted length prefix can stall a reader
// mid-frame; the sever bounds it), waits for distributed quiescence, and
// asserts the shared invariants from internal/oracle:
//
//   - every worker completed with an all-definite history and the system
//     recorded zero protocol violations (verdict agreement);
//   - each server's committed line counter equals a sequential replay of
//     its workload — the committed prefix is byte-stable through crashes
//     and partitions, with nothing lost, duplicated, or reordered;
//   - per-peer wire FIFO held at the delivery boundary (oracle.FIFOTap):
//     no resent or duplicated frame re-entered the stream behind the
//     receiver's dedup watermark;
//   - a killed node recovered from its WAL on the same address with the
//     same root PID (no resurrection of rolled-back state: recovery
//     replays the log, it does not reinvent it).
//
// With Config.PermKill the storm instead kills one node permanently: no
// restart ever follows, the client's wire failure detector must declare
// the corpse dead, and the engine's liveness layer must auto-deny the
// orphaned assumptions so dependents roll back instead of waiting
// forever. The oracle's liveness invariant then replaces completeness
// for the doomed workload: after quiescence no surviving interval is
// speculative on anything the dead node owned.
//
// Everything about a run derives from Config.Seed: GenPlan is a pure
// function, so a failing run's printed seed and plan are a complete
// reproduction recipe.
package harness

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/faultwire"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/node"
	"github.com/hope-dist/hope/internal/oracle"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/transport"
	"github.com/hope-dist/hope/internal/wire"
)

// BootInfo is what a hoped child reports on stdout before serving.
type BootInfo struct {
	Addr      string
	PID       ids.PID
	Recovered string // the HOPED RECOVERED line verbatim, "" on a fresh boot
}

// AwaitBoot parses a hoped child's boot lines from r: an optional
// "HOPED RECOVERED …" line followed by "HOPED READY node=… addr=…
// pid=…". It is the one parser for the protocol; cmd/hopebench and the
// cmd/hoped tests share it.
func AwaitBoot(r io.Reader) (BootInfo, error) {
	type res struct {
		info BootInfo
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		var info BootInfo
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "HOPED RECOVERED") {
				info.Recovered = line
				continue
			}
			if !strings.HasPrefix(line, "HOPED READY") {
				continue
			}
			if err := parseReady(line, &info); err != nil {
				ch <- res{err: err}
				return
			}
			ch <- res{info: info}
			return
		}
		ch <- res{err: fmt.Errorf("hoped exited before READY: %v", sc.Err())}
	}()
	select {
	case r := <-ch:
		return r.info, r.err
	case <-time.After(15 * time.Second):
		return BootInfo{}, fmt.Errorf("timed out waiting for hoped READY line")
	}
}

// parseReady fills info's Addr and PID from a HOPED READY line; shared
// by AwaitBoot and the churn harness's view watcher (which keeps the
// stdout stream for itself after boot).
func parseReady(line string, info *BootInfo) error {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "addr="); ok {
			info.Addr = v
		}
		if v, ok := strings.CutPrefix(f, "pid="); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("bad pid in READY line %q: %v", line, err)
			}
			info.PID = ids.PID(n)
		}
	}
	if info.Addr == "" {
		return fmt.Errorf("no addr in READY line %q", line)
	}
	return nil
}

// StartHoped launches a hoped child and waits for its boot report.
func StartHoped(bin string, args []string) (*exec.Cmd, BootInfo, error) {
	child := exec.Command(bin, args...)
	child.Stderr = os.Stderr
	stdout, err := child.StdoutPipe()
	if err != nil {
		return nil, BootInfo{}, err
	}
	if err := child.Start(); err != nil {
		return nil, BootInfo{}, err
	}
	info, err := AwaitBoot(stdout)
	if err != nil {
		child.Process.Kill()
		child.Wait()
		return nil, BootInfo{}, fmt.Errorf("hoped %v: %w", args, err)
	}
	return child, info, nil
}

// Config parameterizes one chaos storm.
type Config struct {
	Seed     int64
	Nodes    int           // hoped server processes (numbered 1..Nodes)
	Span     time.Duration // storm duration; quiescence is awaited after
	Kill     bool          // SIGKILL+restart one node mid-storm (requires durable nodes)
	PermKill bool          // SIGKILL one node permanently — no restart; enables the liveness layer (overrides Kill)
	Durable  bool          // run children with a WAL (--data-dir); implied by Kill
	Fsync    string        // hoped --fsync policy for durable nodes ("" = interval)
	HopedBin string        // path to the hoped binary (required)
	DataRoot string        // parent dir for per-node WALs ("" = a fresh temp dir)
	PageSize int           // pagination page size (default 3)
	Reports  int           // reports per server workload (default 48)
	Jitter   time.Duration // per-chunk proxy latency jitter (default 200µs)
	Tracer   trace.Tracer  // receives trace.Fault events (nil = discard)
	Log      io.Writer     // storm narration (nil = discard)
}

func (c *Config) norm() error {
	if c.HopedBin == "" {
		return fmt.Errorf("harness: HopedBin is required")
	}
	if c.Nodes < 1 {
		return fmt.Errorf("harness: Nodes = %d, want >= 1", c.Nodes)
	}
	if c.Span <= 0 {
		c.Span = 2 * time.Second
	}
	if c.PermKill {
		// A permanent kill supersedes kill+restart: the plan places the
		// SIGKILL at the same instant but nothing ever follows. Children
		// stay durable so the victim's on-disk state is a realistic corpse.
		c.Kill = false
		c.Durable = true
	}
	if c.Kill {
		c.Durable = true
	}
	if c.Fsync == "" {
		c.Fsync = "interval"
	}
	if c.PageSize <= 0 {
		c.PageSize = 3
	}
	if c.Reports <= 0 {
		c.Reports = 48
	}
	if c.Jitter <= 0 {
		c.Jitter = 200 * time.Microsecond
	}
	if c.Tracer == nil {
		c.Tracer = trace.Nop
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return nil
}

// Result summarizes a completed storm.
type Result struct {
	Plan       faultwire.Plan
	Elapsed    time.Duration
	Wire       wire.WireStats               // client node counters
	Proxies    map[int]faultwire.ProxyStats // node → merged in+out proxy stats
	Rollbacks  int                          // worker restarts across all workloads
	Recovered  string                       // the killed node's RECOVERED line
	PermKilled int                          // node permanently killed (0 = none)
	AutoDenied int64                        // assumptions the client's liveness layer auto-denied
}

// LivenessTimings derives the failure-detector and lease timings a storm
// of the given span uses, shared by the harness and `hopebench chaos
// --plan`. Suspicion starts after one span of silence; death needs two
// spans plus a fixed margin, so no partition the generator schedules
// (≤ 3/8 span, healed within the storm) can ever be mistaken for a
// death. The lease outlives the dead threshold by one more span so that
// owner-death detection — not lease expiry — resolves dead-owned
// assumptions, and the lease only catches what the detector cannot see:
// assumptions hosted locally whose resolution depended on the dead node.
func LivenessTimings(span time.Duration) (suspect, dead, lease time.Duration) {
	suspect = span
	dead = 2*span + 6*time.Second
	lease = dead + span
	return suspect, dead, lease
}

// startClient starts a storm's in-process client, node 0: no root
// service, no cluster membership, and a transport audited by the FIFO
// tap, so a duplicate sneaking past the dedup watermark is caught at the
// exact boundary it would corrupt.
func startClient(cfg node.Config) (*node.Node, *oracle.FIFOTap, error) {
	var tap *oracle.FIFOTap
	cfg.Listen = "127.0.0.1:0"
	cfg.WrapTransport = func(w *wire.Node) transport.Transport {
		tap = oracle.NewFIFOTap(w)
		return tap
	}
	n, err := node.Start(cfg)
	return n, tap, err
}

// server is one hoped child with its two proxies: in carries client →
// server dials, out carries server → client dials. Faults against a node
// hit both, so a partition cuts the link in both directions.
type server struct {
	id      int
	addr    string // the child's real listen address (stable across restart)
	pid     ids.PID
	dataDir string
	child   *exec.Cmd
	in, out *faultwire.Proxy
	mu      sync.Mutex // guards child across kill/restart
}

// Run executes one storm. The returned Result is valid even on error —
// print Result.Plan alongside the seed to reproduce the failure.
func Run(cfg Config) (Result, error) {
	var res Result
	if err := cfg.norm(); err != nil {
		return res, err
	}
	var plan faultwire.Plan
	if cfg.PermKill {
		plan = faultwire.GenPlanPerm(cfg.Seed, cfg.Nodes, cfg.Span)
	} else {
		plan = faultwire.GenPlan(cfg.Seed, cfg.Nodes, cfg.Span, cfg.Kill)
	}
	res.Plan = plan
	suspect, dead, lease := LivenessTimings(cfg.Span)
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.Log, format+"\n", args...) }
	start := time.Now()

	dataRoot := cfg.DataRoot
	if cfg.Durable && dataRoot == "" {
		dir, err := os.MkdirTemp("", "hope-chaos-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		dataRoot = dir
	}

	// Client node 0 lives in-process. When the plan kills a node for
	// good, it also runs the liveness layer: the wire failure detector
	// declares the silent peer dead and the engine auto-denies whatever
	// the corpse owned.
	ncfg := node.Config{Tracer: cfg.Tracer}
	if cfg.PermKill {
		ncfg.SuspectAfter, ncfg.DeadAfter, ncfg.Lease = suspect, dead, lease
	}
	cn, tap, err := startClient(ncfg)
	if err != nil {
		return res, err
	}
	defer cn.Close(0)
	client, eng := cn.Wire(), cn.Engine()

	servers := make([]*server, 0, cfg.Nodes)
	defer func() {
		for _, s := range servers {
			s.mu.Lock()
			if s.child != nil {
				s.child.Process.Signal(os.Interrupt)
				s.child.Wait()
			}
			s.mu.Unlock()
		}
	}()

	for id := 1; id <= cfg.Nodes; id++ {
		s := &server{id: id}
		// The outbound proxy (server → client) must exist before the
		// child: its address is the child's --peer 0.
		s.out, err = faultwire.NewProxy(faultwire.ProxyConfig{
			Listen: "127.0.0.1:0", Target: client.Addr(),
			Seed: cfg.Seed ^ int64(id)<<1, Jitter: cfg.Jitter, Tracer: cfg.Tracer,
		})
		if err != nil {
			return res, err
		}
		defer s.out.Close()

		args := []string{
			"--node", strconv.Itoa(id), "--listen", "127.0.0.1:0",
			"--serve", "printserver", "--peer", "0=" + s.out.Addr(),
			// Teardown happens after the oracle has passed; a long
			// best-effort drain would only slow the run down.
			"--drain-timeout", "2s",
		}
		if cfg.Durable {
			s.dataDir = filepath.Join(dataRoot, fmt.Sprintf("node%d", id))
			args = append(args, "--data-dir", s.dataDir, "--fsync", cfg.Fsync)
		}
		if cfg.PermKill {
			// Servers run the same detector/lease timings as the client;
			// their only peer is node 0, which never dies, so this mostly
			// exercises the flag plumbing end to end.
			args = append(args,
				"--suspect-after", suspect.String(),
				"--dead-after", dead.String(),
				"--lease", lease.String())
		}
		child, boot, err := StartHoped(cfg.HopedBin, args)
		if err != nil {
			return res, err
		}
		s.child, s.addr, s.pid = child, boot.Addr, boot.PID
		if wire.NodeOf(s.pid) != id {
			return res, fmt.Errorf("node %d root PID %v is outside its namespace", id, s.pid)
		}

		// The inbound proxy (client → server) targets the child's real
		// address, which survives restart — the victim relistens on it.
		s.in, err = faultwire.NewProxy(faultwire.ProxyConfig{
			Listen: "127.0.0.1:0", Target: s.addr,
			Seed: cfg.Seed ^ int64(id)<<1 ^ 1, Jitter: cfg.Jitter, Tracer: cfg.Tracer,
		})
		if err != nil {
			return res, err
		}
		defer s.in.Close()
		client.SetPeer(id, s.in.Addr())
		servers = append(servers, s)
		logf("node %d up: addr=%s pid=%v proxies in=%s out=%s",
			id, s.addr, s.pid, s.in.Addr(), s.out.Addr())
	}

	// One streamed pagination workload per server, all running through
	// the storm concurrently.
	type workload struct {
		worker *core.Process
		server *server
		mu     sync.Mutex
		done   int
		rep    rpc.PageReport
	}
	workloads := make([]*workload, 0, len(servers))
	for _, s := range servers {
		w := &workload{server: s}
		s := s
		worker, err := eng.SpawnRoot(rpc.StreamedWorker(s.pid, cfg.PageSize, cfg.Reports, func(r rpc.PageReport) {
			w.mu.Lock()
			w.rep, w.done = r, w.done+1
			w.mu.Unlock()
		}))
		if err != nil {
			return res, fmt.Errorf("spawn workload for node %d: %w", s.id, err)
		}
		w.worker = worker
		workloads = append(workloads, w)
	}

	// Execute the fault plan against the proxies and processes.
	byNode := make(map[int]*server, len(servers))
	for _, s := range servers {
		byNode[s.id] = s
	}
	for _, e := range plan.Events {
		if wait := e.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		s := byNode[e.Node]
		logf("%8v %s", time.Since(start).Round(time.Millisecond), e)
		switch e.Op {
		case faultwire.OpSever:
			s.in.Sever()
			s.out.Sever()
		case faultwire.OpPartition:
			s.in.Block()
			s.out.Block()
		case faultwire.OpHeal:
			s.in.Unblock()
			s.out.Unblock()
		case faultwire.OpCorrupt:
			s.in.CorruptNext(1)
			s.out.CorruptNext(1)
		case faultwire.OpKill:
			s.mu.Lock()
			err := s.child.Process.Kill()
			s.child.Wait()
			s.mu.Unlock()
			if err != nil {
				return res, fmt.Errorf("SIGKILL node %d: %w", e.Node, err)
			}
		case faultwire.OpKillPerm:
			s.mu.Lock()
			err := s.child.Process.Kill()
			s.child.Wait()
			s.child = nil // never restarted; teardown must not re-signal it
			s.mu.Unlock()
			if err != nil {
				return res, fmt.Errorf("SIGKILL (permanent) node %d: %w", e.Node, err)
			}
			res.PermKilled = e.Node
		case faultwire.OpRestart:
			args := []string{
				"--node", strconv.Itoa(s.id), "--listen", s.addr,
				"--serve", "printserver", "--peer", "0=" + s.out.Addr(),
				"--drain-timeout", "2s",
				"--data-dir", s.dataDir, "--fsync", cfg.Fsync,
			}
			child, boot, err := StartHoped(cfg.HopedBin, args)
			if err != nil {
				return res, fmt.Errorf("restart node %d: %w", e.Node, err)
			}
			if boot.Recovered == "" {
				child.Process.Kill()
				child.Wait()
				return res, fmt.Errorf("restarted node %d reported no recovery", e.Node)
			}
			if boot.PID != s.pid {
				child.Process.Kill()
				child.Wait()
				return res, fmt.Errorf("node %d root PID changed across restart: %v -> %v",
					e.Node, s.pid, boot.PID)
			}
			res.Recovered = boot.Recovered
			s.mu.Lock()
			s.child = child
			s.mu.Unlock()
			logf("%8v node %d recovered: %s", time.Since(start).Round(time.Millisecond), s.id, boot.Recovered)
		}
	}

	// Storm over: make the network whole and kick every possibly-stalled
	// reader once, then wait for distributed quiescence.
	for _, s := range servers {
		s.in.Unblock()
		s.out.Unblock()
		s.in.Sever()
		s.out.Sever()
	}
	logf("%8v storm over, awaiting quiescence", time.Since(start).Round(time.Millisecond))

	deadline := time.Now().Add(90 * time.Second)
	for _, w := range workloads {
		doomed := cfg.PermKill && w.server.id == res.PermKilled
		for {
			st := w.worker.Snapshot()
			w.mu.Lock()
			completed := w.done > 0
			w.mu.Unlock()
			if doomed {
				// The dead server answers nothing, so the doomed workload
				// ends one of two ways. If every application-level denial
				// was already in flight when the node died, the rollback
				// cascade resolves the whole history and it quiesces fully
				// definite like any survivor. Otherwise some assumption is
				// orphaned — unconfirmable forever — and only a liveness
				// auto-deny (lease expiry) can resolve it; its rollback
				// re-executes the body into fresh client-local speculation,
				// so "done" is speculative completion plus proof that the
				// layer is resolving orphans rather than hanging. Without
				// the liveness layer the second case never exits this loop.
				if st.Completed && client.Inflight() == 0 &&
					(st.AllDefinite || eng.AutoDenied() > 0) {
					res.Rollbacks += st.Restarts
					break
				}
			} else if completed && st.Completed && st.AllDefinite && client.Inflight() == 0 {
				res.Rollbacks += st.Restarts
				break
			}
			if time.Now().After(deadline) {
				return res, fmt.Errorf("no quiescence for node %d workload: worker=%+v inflight=%d autodenied=%d wire=%v",
					w.server.id, st, client.Inflight(), eng.AutoDenied(), client.WireStats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Invariants. The liveness check first (every survivor, dead or
	// healthy server), then workers (verdict agreement + definiteness),
	// then the committed layout per surviving server, then the FIFO audit.
	deadOwned := func(a ids.AID) bool {
		return res.PermKilled != 0 && wire.NodeOf(a.PID()) == res.PermKilled
	}
	for _, w := range workloads {
		name := fmt.Sprintf("node %d workload", w.server.id)
		if err := oracle.CheckLiveness(name, w.worker.HistorySnapshot(), deadOwned); err != nil {
			return res, err
		}
		if cfg.PermKill && w.server.id == res.PermKilled {
			// The doomed workload's residual speculation is client-local by
			// construction (CheckLiveness above); completeness and totals
			// are unreachable without its server.
			continue
		}
		if err := oracle.CheckWorker(name, w.worker.Snapshot()); err != nil {
			return res, err
		}
		w.mu.Lock()
		rep := w.rep
		w.mu.Unlock()
		if rep.Totals != cfg.Reports {
			return res, fmt.Errorf("%s printed %d totals, want %d", name, rep.Totals, cfg.Reports)
		}
	}
	for _, s := range servers {
		if cfg.PermKill && s.id == res.PermKilled {
			continue // no process left to probe
		}
		want := oracle.ExpectedFinalLine(cfg.PageSize, cfg.Reports) + 1
		line, err := rpc.Probe(eng, s.pid, rpc.MethodPrint, 30*time.Second)
		if err != nil {
			return res, fmt.Errorf("probe node %d: %w", s.id, err)
		}
		if line != want {
			return res, fmt.Errorf("node %d final line = %d, want %d: prints lost, duplicated, or reordered",
				s.id, line, want)
		}
	}
	if v := eng.Violations(); v != 0 {
		return res, fmt.Errorf("%d protocol violations", v)
	}
	if bad := tap.Violations(); len(bad) != 0 {
		return res, fmt.Errorf("per-pair FIFO inversions at delivery: %s", strings.Join(bad, "; "))
	}
	if cfg.Kill && res.Recovered == "" {
		return res, fmt.Errorf("plan killed node %d but no recovery was recorded", plan.Victim())
	}
	if cfg.PermKill && res.PermKilled == 0 {
		return res, fmt.Errorf("perm-kill storm killed no node")
	}
	res.AutoDenied = eng.AutoDenied()

	res.Elapsed = time.Since(start)
	res.Wire = client.WireStats()
	res.Proxies = make(map[int]faultwire.ProxyStats, len(servers))
	for _, s := range servers {
		in, out := s.in.Stats(), s.out.Stats()
		res.Proxies[s.id] = faultwire.ProxyStats{
			Accepted:  in.Accepted + out.Accepted,
			Refused:   in.Refused + out.Refused,
			Severed:   in.Severed + out.Severed,
			Corrupted: in.Corrupted + out.Corrupted,
			Bytes:     in.Bytes + out.Bytes,
		}
	}
	return res, nil
}
