// Package harness drives the multi-process chaos storms: hoped children
// serving printserver, an in-process client engine (node 0) driving one
// streamed pagination workload per server, faults executed against them
// mid-run, then distributed quiescence and the invariants from
// internal/oracle. It is one driver with two entry points:
//
//   - Run, the fault storm (storm.go): durable servers behind
//     fault-injecting TCP proxies (internal/faultwire) and a
//     seed-deterministic plan of severs, partitions, armed bit flips and
//     one SIGKILL, either restarted from the WAL or permanent;
//   - RunChurn, the membership storm (churn.go): a dynamic cluster that
//     loses one member to SIGKILL mid-speculation and absorbs a fresh
//     joiner, optionally with state survival and the commit watermark.
//
// Both start every child through one launcher (startChild) whose stdout
// reader parses hoped's HOPED lines (parseHopedLine), spawn their
// workloads the same way (spawnWorkloads), wait for quiescence under one
// rule (awaitQuiescence) and end with one invariant pass
// (checkInvariants):
//
//   - no surviving speculation on anything a dead node owned
//     (oracle.CheckLiveness);
//   - every workload that had to complete did, with an all-definite
//     history, agreed verdicts (oracle.CheckWorker) and every total
//     printed;
//   - zero protocol violations;
//   - per-pair wire FIFO at the delivery boundary (oracle.FIFOTap): no
//     resent or duplicated frame re-entered the stream behind the
//     receiver's dedup watermark.
//
// Everything about a run derives from its seed, so a failing run's
// printed seed (and, for the fault storm, plan) reproduces it.
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

	"github.com/hope-dist/hope/internal/cluster"
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

// Setup is what both storms configure alike: the servers, their WALs and
// the workload each one serves.
type Setup struct {
	Seed     int64
	Nodes    int    // hoped server processes, numbered 1..Nodes
	HopedBin string // path to the hoped binary (required)
	PageSize int    // pagination page size (default 3)
	Reports  int    // reports per server workload (default 48)

	Tracer trace.Tracer // receives trace.Fault events (nil = discard)
	Log    io.Writer    // storm narration (nil = discard)
}

func (s *Setup) norm(minNodes int) error {
	if s.HopedBin == "" {
		return fmt.Errorf("harness: HopedBin is required")
	}
	if s.Nodes < minNodes {
		return fmt.Errorf("harness: Nodes = %d, want >= %d", s.Nodes, minNodes)
	}
	if s.PageSize <= 0 {
		s.PageSize = 3
	}
	if s.Reports <= 0 {
		s.Reports = 48
	}
	if s.Tracer == nil {
		s.Tracer = trace.Nop
	}
	if s.Log == nil {
		s.Log = io.Discard
	}
	return nil
}

// dataRoot makes a fresh temp dir to hold the per-node WAL directories;
// cleanup removes it.
func dataRoot() (root string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "hope-storm-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// narrate writes one line of storm narration stamped with the time since
// start.
func narrate(w io.Writer, start time.Time, format string, args ...any) {
	fmt.Fprintf(w, "%8v "+format+"\n", append([]any{time.Since(start).Round(time.Millisecond)}, args...)...)
}

// BootInfo is what a hoped child reports on stdout before serving.
type BootInfo struct {
	Addr      string
	PID       ids.PID
	Recovered string // the HOPED RECOVERED line verbatim, "" on a fresh boot
}

// StartHoped launches a hoped child and waits for its boot report. The
// child's stdout stays drained for its whole life.
func StartHoped(bin string, args []string) (*exec.Cmd, BootInfo, error) {
	c, err := startChild(bin, args)
	if err != nil {
		return nil, BootInfo{}, err
	}
	return c.cmd, c.boot, nil
}

// hopedLine is one parsed announcement from hoped's stdout; cmd/hoped's
// doc comment lists the formats. Only the fields the storms read are
// kept.
type hopedLine struct {
	at       time.Time
	kind     string                // READY, RECOVERED, VIEW, STABLE, ADOPTED, TRANSPLANTED, EVICTED
	addr     string                // READY
	pid      ids.PID               // READY
	epoch    uint64                // STABLE
	frontier string                // STABLE
	from     int                   // ADOPTED, TRANSPLANTED: whose WAL
	count    int                   // ADOPTED count=, TRANSPLANTED procs=
	pairs    []core.TransplantPair // TRANSPLANTED map=
	view     cluster.ViewLine      // VIEW
}

// parseHopedLine parses one line of hoped's stdout. ok is false for a
// line that is no HOPED announcement. A missing or malformed field that
// the storms read is an error, so a format drift fails at the line
// instead of as a storm timeout. VIEW lines go to cluster.ParseViewLine.
func parseHopedLine(line string) (l hopedLine, ok bool, err error) {
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != "HOPED" {
		return l, false, nil
	}
	l.kind = f[1]
	if l.kind == "VIEW" {
		l.view, _, err = cluster.ParseViewLine(line)
		return l, true, err
	}
	kv := make(map[string]string, len(f))
	for _, s := range f[2:] {
		if k, v, found := strings.Cut(s, "="); found {
			kv[k] = v
		}
	}
	str := func(key string) string {
		if kv[key] == "" && err == nil {
			err = fmt.Errorf("no %s= in %q", key, line)
		}
		return kv[key]
	}
	num := func(key, v string) uint64 {
		n, perr := strconv.ParseUint(v, 10, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("bad %s=%q in %q", key, v, line)
		}
		return n
	}
	field := func(key string) uint64 { return num(key, str(key)) }
	switch l.kind {
	case "READY":
		l.addr, l.pid = str("addr"), ids.PID(field("pid"))
	case "STABLE":
		l.epoch, l.frontier = field("epoch"), str("frontier")
	case "ADOPTED":
		l.from, l.count = int(field("from")), int(field("count"))
	case "TRANSPLANTED":
		l.from, l.count = int(field("from")), int(field("procs"))
		if m := str("map"); m != "-" && err == nil {
			for _, pair := range strings.Split(m, ",") {
				o, n, _ := strings.Cut(pair, ":")
				l.pairs = append(l.pairs, core.TransplantPair{Old: ids.PID(num("map", o)), New: ids.PID(num("map", n))})
			}
		}
		if err == nil && len(l.pairs) != l.count {
			err = fmt.Errorf("procs=%d but %d map pairs in %q", l.count, len(l.pairs), line)
		}
	}
	return l, true, err
}

// child is one hoped process. A single reader owns its stdout for the
// process's whole life: it takes the boot report, then records every
// later HOPED line with its arrival time (the observable instant of a
// membership decision), and keeps the pipe drained so a chatty child
// never blocks.
type child struct {
	cmd  *exec.Cmd
	boot BootInfo

	mu    sync.Mutex
	lines []hopedLine
}

// startChild launches hoped with args and waits for its READY line.
func startChild(bin string, args []string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...)}
	c.cmd.Stderr = os.Stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	booted := make(chan error, 1)
	go c.read(stdout, booted)
	select {
	case err = <-booted:
	case <-time.After(15 * time.Second):
		err = fmt.Errorf("timed out waiting for READY")
	}
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("hoped %v: %w", args, err)
	}
	return c, nil
}

func (c *child) read(r io.Reader, booted chan<- error) {
	sc := bufio.NewScanner(r)
	ready := false
	for sc.Scan() {
		l, ok, err := parseHopedLine(sc.Text())
		switch {
		case !ok:
		case err != nil && !ready && l.kind == "READY":
			booted <- err
			return
		case err != nil:
			fmt.Fprintf(os.Stderr, "harness: %v\n", err)
		case !ready && l.kind == "RECOVERED":
			c.boot.Recovered = sc.Text()
		case !ready && l.kind == "READY":
			c.boot.Addr, c.boot.PID, ready = l.addr, l.pid, true
			booted <- nil
		default:
			l.at = time.Now()
			c.mu.Lock()
			c.lines = append(c.lines, l)
			c.mu.Unlock()
		}
	}
	if !ready {
		booted <- fmt.Errorf("hoped exited before READY: %v", sc.Err())
	}
}

// find returns the child's first recorded line of the kind that match
// accepts (nil accepts any), or its newest when newest is set.
func (c *child) find(kind string, newest bool, match func(hopedLine) bool) (hopedLine, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.lines {
		if newest {
			i = len(c.lines) - 1 - i
		}
		if l := c.lines[i]; l.kind == kind && (match == nil || match(l)) {
			return l, true
		}
	}
	return hopedLine{}, false
}

// view returns the child's newest VIEW announcement, if any.
func (c *child) view() (cluster.ViewLine, bool) {
	l, ok := c.find("VIEW", true, nil)
	return l.view, ok
}

// kill SIGKILLs the child and reaps it.
func (c *child) kill() error {
	err := c.cmd.Process.Kill()
	c.cmd.Wait()
	return err
}

// server is one hoped child serving printserver. In the fault storm it
// sits behind two proxies: in carries client → server dials, out
// carries server → client dials, so a partition cuts the link in both
// directions.
type server struct {
	id      int
	addr    string  // the child's listen address (stable across restart)
	pid     ids.PID // its root service
	dataDir string  // "" for a volatile server
	in, out *faultwire.Proxy
	proc    *child // nil while killed
}

func newServer(id int, dataRoot string) *server {
	s := &server{id: id}
	if dataRoot != "" {
		s.dataDir = filepath.Join(dataRoot, fmt.Sprintf("node%d", id))
	}
	return s
}

// args are the flags every storm server runs with; each storm appends
// its own. A durable server syncs its WAL by hoped's default policy.
func (s *server) args(listen, client string) []string {
	args := []string{
		"--node", strconv.Itoa(s.id), "--listen", listen,
		"--serve", "printserver", "--peer", "0=" + client,
		// Teardown happens after the oracle has passed; a long
		// best-effort drain would only slow the run down.
		"--drain-timeout", "2s",
	}
	if s.dataDir != "" {
		args = append(args, "--data-dir", s.dataDir)
	}
	return args
}

// livenessArgs are hoped's failure-detector and lease flags.
func livenessArgs(suspect, dead, lease time.Duration) []string {
	return []string{"--suspect-after", suspect.String(), "--dead-after", dead.String(), "--lease", lease.String()}
}

// start launches the server's hoped child. Its root PID must lie in the
// node's own namespace.
func (s *server) start(bin string, args []string) (BootInfo, error) {
	c, err := startChild(bin, args)
	if err != nil {
		return BootInfo{}, err
	}
	if wire.NodeOf(c.boot.PID) != s.id {
		c.kill()
		return BootInfo{}, fmt.Errorf("node %d root PID %v is outside its namespace", s.id, c.boot.PID)
	}
	s.proc = c
	return c.boot, nil
}

// kill SIGKILLs the server: no drain, no WAL close, no goodbye.
func (s *server) kill() error {
	c := s.proc
	s.proc = nil
	return c.kill()
}

// stopAll interrupts every running server and waits for it to exit.
func stopAll(servers []*server) {
	for _, s := range servers {
		if s.proc != nil {
			s.proc.cmd.Process.Signal(os.Interrupt)
			s.proc.cmd.Wait()
		}
	}
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

// workload is one streamed pagination worker printing to one server.
type workload struct {
	srv     *server
	worker  *core.Process
	settled time.Time // when awaitQuiescence saw it settle

	mu   sync.Mutex
	done int
	rep  rpc.PageReport
}

// report returns the worker's last page report and whether it finished.
func (w *workload) report() (rpc.PageReport, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rep, w.done > 0
}

// spawnWorkloads starts one streamed pagination workload per server, all
// running concurrently.
func spawnWorkloads(eng *core.Engine, servers []*server, cfg *Setup) ([]*workload, error) {
	workloads := make([]*workload, 0, len(servers))
	for _, s := range servers {
		w := &workload{srv: s}
		var err error
		w.worker, err = eng.SpawnRoot(rpc.StreamedWorker(s.pid, cfg.PageSize, cfg.Reports, func(r rpc.PageReport) {
			w.mu.Lock()
			w.rep, w.done = r, w.done+1
			w.mu.Unlock()
		}))
		if err != nil {
			return nil, fmt.Errorf("spawn workload for node %d: %w", s.id, err)
		}
		workloads = append(workloads, w)
	}
	return workloads, nil
}

// waitUntil polls ok every tick until it holds, and reports false if it
// still does not once timeout has passed.
func waitUntil(timeout, tick time.Duration, ok func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(tick)
	}
	return true
}

// awaitQuiescence waits up to 90 s for every workload to settle and
// returns the worker restarts summed over them. A workload that
// mustComplete is done, Completed and AllDefinite with nothing in
// flight. Any other is doomed: its server is gone and answers nothing,
// so it ends one of two ways. If every application-level denial was
// already in flight when the node died, the rollback cascade resolves
// the whole history and it quiesces all-definite like a survivor.
// Otherwise some assumption is orphaned, unconfirmable forever, and only
// a liveness auto-deny can resolve it; its rollback re-executes the body
// into fresh client-local speculation, so it is settled once it quiesces
// and the layer has auto-denied something. Without the liveness layer
// the second case never settles.
func awaitQuiescence(cn *node.Node, workloads []*workload, mustComplete func(*workload) bool) (int, error) {
	client, eng := cn.Wire(), cn.Engine()
	deadline := time.Now().Add(90 * time.Second)
	rollbacks := 0
	for _, w := range workloads {
		var st core.Status
		if !waitUntil(time.Until(deadline), time.Millisecond, func() bool {
			st = w.worker.Snapshot()
			_, done := w.report()
			if !st.Completed || client.Inflight() != 0 {
				return false
			}
			if mustComplete(w) {
				return done && st.AllDefinite
			}
			return st.AllDefinite || eng.AutoDenied() > 0
		}) {
			return rollbacks, fmt.Errorf("no quiescence for node %d workload: completed=%v definite=%v worker=%+v inflight=%d autodenied=%d routing=%+v wire=%v",
				w.srv.id, st.Completed, st.AllDefinite, st, client.Inflight(), eng.AutoDenied(), eng.RoutingStats(), client.WireStats())
		}
		rollbacks += st.Restarts
		w.settled = time.Now()
	}
	return rollbacks, nil
}

// checkInvariants is the pass both storms end with once the workloads
// have quiesced: no workload still speculative on anything node dead
// owned (0: no node died for good); verdict agreement, completeness and
// every total printed for each workload that mustComplete; zero protocol
// violations; and per-pair FIFO at delivery.
func checkInvariants(eng *core.Engine, tap *oracle.FIFOTap, workloads []*workload, reports, dead int, mustComplete func(*workload) bool) error {
	deadOwned := func(a ids.AID) bool { return dead != 0 && wire.NodeOf(a.PID()) == dead }
	for _, w := range workloads {
		name := fmt.Sprintf("node %d workload", w.srv.id)
		if err := oracle.CheckLiveness(name, w.worker.HistorySnapshot(), deadOwned); err != nil {
			return err
		}
		if !mustComplete(w) {
			// Its residual speculation is client-local (checked above);
			// completeness and totals are unreachable without its server.
			continue
		}
		if err := oracle.CheckWorker(name, w.worker.Snapshot()); err != nil {
			return err
		}
		if rep, _ := w.report(); rep.Totals != reports {
			return fmt.Errorf("%s printed %d totals, want %d", name, rep.Totals, reports)
		}
	}
	if v := eng.Violations(); v != 0 {
		return fmt.Errorf("%d protocol violations", v)
	}
	if bad := tap.Violations(); len(bad) != 0 {
		return fmt.Errorf("per-pair FIFO inversions at delivery: %s", strings.Join(bad, "; "))
	}
	return nil
}
