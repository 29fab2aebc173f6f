package harness

// The churn storm is the membership layer's end-to-end trial: a cluster
// of hoped processes bootstrapped from one seed, a client engine
// driving optimistic workloads against every member, then churn — one
// member SIGKILLed mid-speculation and a fresh member joined in its
// place. The run passes only if ownership handoff actually happened:
// every survivor's view converges on the death, the assumptions the
// corpse owned are auto-denied (so dependents roll back instead of
// waiting forever), the late joiner is absorbed and takes a share of
// the ring, and the shared ownership invariant (oracle.CheckOwnership)
// holds over the final views — same live set, same ring, every key's
// owner alive — on every surviving node.
//
// Latency is measured at the observable boundary, the HOPED VIEW lines:
// detection is SIGKILL → a survivor's first view with the victim dead,
// resolution is SIGKILL → the doomed workload quiescing (every orphaned
// assumption denied and rolled back). Everything derives from
// ChurnConfig.Seed, so a failing run's seed reproduces it.

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hope-dist/hope/internal/cluster"
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/durable"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/node"
	"github.com/hope-dist/hope/internal/oracle"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/wire"
)

// ChurnConfig parameterizes one membership-churn storm.
type ChurnConfig struct {
	Seed     int64
	Nodes    int    // initial cluster size; node 1 is the seed (default 3)
	HopedBin string // path to the hoped binary (required)
	DataRoot string // parent dir for per-node WALs ("" = a fresh temp dir)
	Fsync    string // hoped --fsync policy (default "interval")
	PageSize int    // pagination page size (default 3)
	Reports  int    // reports per member workload (default 48)
	VNodes   int    // ring virtual nodes per member (default cluster.DefaultVNodes)

	// GossipEvery is the members' gossip period (default 25ms) and
	// DeadAfter their failure detector's death threshold (default 1s;
	// suspicion at a quarter of it, hoped's own default). The client's
	// detector and the speculation lease derive from DeadAfter too.
	GossipEvery time.Duration
	DeadAfter   time.Duration

	// Watermark runs every member with --watermark (fast rounds): the
	// storm then also asserts the stability protocol survives the churn —
	// after the join, every final member must announce a HOPED STABLE
	// frontier agreed at the final view epoch, proving rounds resumed
	// once the corpse was evicted and the joiner absorbed.
	Watermark bool

	// Survive runs every member with --data-root (state survival:
	// ownership-routed adjudication, WAL shard adoption and process
	// transplant) and routes the client's own adjudications through the
	// members' announced views. The storm then also asserts:
	//   - every survivor adopts its slice of the corpse's shard (HOPED
	//     ADOPTED) and of its user processes (HOPED TRANSPLANTED), with
	//     adopt latencies recorded;
	//   - the union of transplant announcements rebirths each corpse
	//     process exactly once at its ring owner (oracle.CheckTransplant —
	//     the at-most-one-incarnation fence);
	//   - the doomed workload COMPLETES against the reborn server with
	//     exactly one final outcome instead of quiescing by denial;
	//   - no surviving workload suffers a spurious denial: its page layout
	//     stays byte-for-byte the sequential one (a lease denial of a
	//     migrated-but-live assumption would insert an extra page break);
	//   - the WAL-visible hosted tables of the final members partition
	//     exactly by the final ring (oracle.CheckMigration).
	Survive bool

	Tracer trace.Tracer // receives trace.Fault events (nil = discard)
	Log    io.Writer    // storm narration (nil = discard)
}

func (c *ChurnConfig) norm() error {
	if c.HopedBin == "" {
		return fmt.Errorf("churn: HopedBin is required")
	}
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Nodes < 2 {
		return fmt.Errorf("churn: Nodes = %d, want >= 2 (someone must survive the kill)", c.Nodes)
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
	if c.VNodes <= 0 {
		c.VNodes = cluster.DefaultVNodes
	}
	if c.GossipEvery <= 0 {
		c.GossipEvery = 25 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = time.Second
	}
	if c.Tracer == nil {
		c.Tracer = trace.Nop
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return nil
}

// ChurnResult summarizes a completed churn storm.
type ChurnResult struct {
	Killed     int             // member SIGKILLed mid-speculation
	Joined     int             // fresh member absorbed after the death
	JoinShare  float64         // fraction of the final ring the joiner owns
	Detect     []time.Duration // per survivor: kill → first view with the victim dead
	DetectP50  time.Duration
	DetectP99  time.Duration
	Resolve    time.Duration // kill → doomed workload quiesced (orphans denied, rolled back)
	JoinLag    time.Duration // join launch → every survivor's view includes the joiner
	Rollbacks  int           // worker restarts across all workloads
	AutoDenied int64         // assumptions the client's liveness layer auto-denied
	FinalEpoch uint64        // agreed view epoch at the end
	FinalLive  []int         // agreed live set at the end

	// Watermark storms only: the agreed stability frontier announced at
	// the final view epoch, and how long after the join agreement the
	// last member took to announce it (rounds blocked by the corpse must
	// resume post-eviction).
	StableFrontier string
	StableLag      time.Duration

	// Survival storms only: machines the survivors absorbed from the
	// corpse's WAL (summed over survivors — each takes only its ring
	// slice), and kill → the first survivor's ADOPTED announcement.
	Adopted      int
	AdoptLatency time.Duration

	// Survival storms only: user processes reborn off the corpse
	// (summed over survivors), and kill → the first survivor's
	// TRANSPLANTED announcement — the process-adopt latency.
	// TransplantOutcomes is the distinct definite outcomes the doomed
	// workload reached: 1 once it quiesced definite-complete. Speculative
	// completions re-fired by rollback are §4.9 exposure (the client runs
	// without the watermark), not extra outcomes; twin externalization is
	// fenced separately by pair uniqueness, duplicate counts, and verdict
	// agreement.
	Transplanted       int
	TransplantLatency  time.Duration
	TransplantOutcomes int

	Elapsed time.Duration
}

// timedView is one HOPED VIEW announcement with its arrival time.
type timedView struct {
	at   time.Time
	view cluster.ViewLine
}

// stableLine is one HOPED STABLE announcement: a stability frontier the
// node adopted, tagged with the view epoch the round ran under.
type stableLine struct {
	at       time.Time
	epoch    uint64
	frontier string
}

// parseStableLine parses "HOPED STABLE node=N epoch=E frontier=F".
func parseStableLine(line string) (stableLine, bool) {
	if !strings.HasPrefix(line, "HOPED STABLE") {
		return stableLine{}, false
	}
	var sl stableLine
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "epoch="); ok {
			e, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return stableLine{}, false
			}
			sl.epoch = e
		}
		if v, ok := strings.CutPrefix(f, "frontier="); ok {
			sl.frontier = v
		}
	}
	return sl, sl.frontier != ""
}

// adoptLine is one HOPED ADOPTED announcement: a shard slice absorbed
// from a WAL, tagged with whose corpse (from == the watcher's own node
// on a restart re-adoption).
type adoptLine struct {
	at    time.Time
	from  int
	count int
}

// parseAdoptLine parses "HOPED ADOPTED node=N from=M count=K".
func parseAdoptLine(line string) (adoptLine, bool) {
	if !strings.HasPrefix(line, "HOPED ADOPTED") {
		return adoptLine{}, false
	}
	al := adoptLine{from: -1, count: -1}
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "from="); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return adoptLine{}, false
			}
			al.from = n
		}
		if v, ok := strings.CutPrefix(f, "count="); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return adoptLine{}, false
			}
			al.count = n
		}
	}
	return al, al.from >= 0 && al.count >= 0
}

// transplantLine is one HOPED TRANSPLANTED announcement: user processes
// reborn from a corpse's WAL by deterministic replay, with the old→new
// incarnation map (from == the watcher's own node on a restart
// re-adoption).
type transplantLine struct {
	at    time.Time
	from  int
	procs int
	pairs []core.TransplantPair
}

// parseTransplantLine parses
// "HOPED TRANSPLANTED node=N from=M procs=K map=old:new,..." (map is
// "-" when the announcer's slice was empty).
func parseTransplantLine(line string) (transplantLine, bool) {
	if !strings.HasPrefix(line, "HOPED TRANSPLANTED") {
		return transplantLine{}, false
	}
	tl := transplantLine{from: -1, procs: -1}
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "from="); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return transplantLine{}, false
			}
			tl.from = n
		}
		if v, ok := strings.CutPrefix(f, "procs="); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return transplantLine{}, false
			}
			tl.procs = n
		}
		if v, ok := strings.CutPrefix(f, "map="); ok && v != "-" {
			for _, pair := range strings.Split(v, ",") {
				o, nw, found := strings.Cut(pair, ":")
				if !found {
					return transplantLine{}, false
				}
				oldPID, err1 := strconv.ParseUint(o, 10, 64)
				newPID, err2 := strconv.ParseUint(nw, 10, 64)
				if err1 != nil || err2 != nil {
					return transplantLine{}, false
				}
				tl.pairs = append(tl.pairs, core.TransplantPair{Old: ids.PID(oldPID), New: ids.PID(newPID)})
			}
		}
	}
	return tl, tl.from >= 0 && tl.procs >= 0 && len(tl.pairs) == tl.procs
}

// viewWatcher owns one hoped child's stdout for the child's whole life:
// it parses the boot lines, then keeps tailing, recording every VIEW
// announcement (timestamped at arrival — the observable instant of a
// membership decision) and any EVICTED notice. Keeping one reader per
// child also keeps the pipe drained, so a chatty child never blocks.
type viewWatcher struct {
	node int

	mu      sync.Mutex
	views   []timedView
	stables []stableLine
	adopts  []adoptLine
	tpls    []transplantLine
	evicted bool

	boot chan bootRes
}

type bootRes struct {
	info BootInfo
	err  error
}

func (w *viewWatcher) watch(r io.Reader) {
	sc := bufio.NewScanner(r)
	var info BootInfo
	booted := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "HOPED RECOVERED"):
			info.Recovered = line
		case strings.HasPrefix(line, "HOPED READY"):
			if booted {
				continue
			}
			booted = true
			if err := parseReady(line, &info); err != nil {
				w.boot <- bootRes{err: err}
				return
			}
			w.boot <- bootRes{info: info}
		case strings.HasPrefix(line, "HOPED EVICTED"):
			w.mu.Lock()
			w.evicted = true
			w.mu.Unlock()
		case strings.HasPrefix(line, "HOPED STABLE"):
			if sl, ok := parseStableLine(line); ok {
				sl.at = time.Now()
				w.mu.Lock()
				w.stables = append(w.stables, sl)
				w.mu.Unlock()
			}
		case strings.HasPrefix(line, "HOPED ADOPTED"):
			if al, ok := parseAdoptLine(line); ok {
				al.at = time.Now()
				w.mu.Lock()
				w.adopts = append(w.adopts, al)
				w.mu.Unlock()
			}
		case strings.HasPrefix(line, "HOPED TRANSPLANTED"):
			if tl, ok := parseTransplantLine(line); ok {
				tl.at = time.Now()
				w.mu.Lock()
				w.tpls = append(w.tpls, tl)
				w.mu.Unlock()
			}
		default:
			if vl, ok, err := cluster.ParseViewLine(line); err == nil && ok {
				w.mu.Lock()
				w.views = append(w.views, timedView{at: time.Now(), view: vl})
				w.mu.Unlock()
			}
		}
	}
	if !booted {
		w.boot <- bootRes{err: fmt.Errorf("node %d exited before READY: %v", w.node, sc.Err())}
	}
}

// latest returns the newest view announcement, if any.
func (w *viewWatcher) latest() (cluster.ViewLine, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.views) == 0 {
		return cluster.ViewLine{}, false
	}
	return w.views[len(w.views)-1].view, true
}

// stableAt returns this node's newest STABLE announcement agreed at the
// given view epoch, if any.
func (w *viewWatcher) stableAt(epoch uint64) (stableLine, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := len(w.stables) - 1; i >= 0; i-- {
		if w.stables[i].epoch == epoch {
			return w.stables[i], true
		}
	}
	return stableLine{}, false
}

// adoptedFrom returns this node's first adoption announcement naming
// from, if any.
func (w *viewWatcher) adoptedFrom(from int) (adoptLine, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, al := range w.adopts {
		if al.from == from {
			return al, true
		}
	}
	return adoptLine{}, false
}

// transplantedFrom returns this node's first transplant announcement
// naming from, if any.
func (w *viewWatcher) transplantedFrom(from int) (transplantLine, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, tl := range w.tpls {
		if tl.from == from {
			return tl, true
		}
	}
	return transplantLine{}, false
}

// firstDead returns when this watcher first announced a view with id in
// its dead list.
func (w *viewWatcher) firstDead(id int) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, tv := range w.views {
		for _, d := range tv.view.Dead {
			if d == id {
				return tv.at, true
			}
		}
	}
	return time.Time{}, false
}

// viewOfLine lifts a parsed VIEW line into a cluster.View (addresses are
// not announced, and the ownership checks do not need them).
func viewOfLine(vl cluster.ViewLine) cluster.View {
	v := cluster.View{Epoch: vl.Epoch}
	for _, id := range vl.Live {
		v.Members = append(v.Members, cluster.Member{ID: id, State: cluster.StateAlive, Epoch: vl.Epoch})
	}
	for _, id := range vl.Dead {
		v.Members = append(v.Members, cluster.Member{ID: id, State: cluster.StateDead, Epoch: vl.Epoch})
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].ID < v.Members[j].ID })
	return v
}

// startWatched launches a hoped child whose stdout is owned by a
// viewWatcher for the child's whole life.
func startWatched(bin string, node int, args []string) (*exec.Cmd, BootInfo, *viewWatcher, error) {
	child := exec.Command(bin, args...)
	child.Stderr = os.Stderr
	stdout, err := child.StdoutPipe()
	if err != nil {
		return nil, BootInfo{}, nil, err
	}
	w := &viewWatcher{node: node, boot: make(chan bootRes, 1)}
	if err := child.Start(); err != nil {
		return nil, BootInfo{}, nil, err
	}
	go w.watch(stdout)
	select {
	case r := <-w.boot:
		if r.err != nil {
			child.Process.Kill()
			child.Wait()
			return nil, BootInfo{}, nil, fmt.Errorf("hoped %v: %w", args, r.err)
		}
		return child, r.info, w, nil
	case <-time.After(15 * time.Second):
		child.Process.Kill()
		child.Wait()
		return nil, BootInfo{}, nil, fmt.Errorf("hoped %v: timed out waiting for READY", args)
	}
}

// ownerRing derives the client's routing view from the members' VIEW
// announcements: the freshest epoch any watched member has announced
// wins, and its live set builds the ring (cached per epoch — ownership
// is a pure function of the live set). The client is not a cluster
// member, so this is exactly the stance of a real external caller:
// route where the cluster says ownership lives, and let a stale answer
// be NACKed into a retry.
type ownerRing struct {
	vnodes int

	mu       sync.Mutex
	watchers []*viewWatcher
	epoch    uint64
	ring     *cluster.Ring
}

func (o *ownerRing) add(w *viewWatcher) {
	o.mu.Lock()
	o.watchers = append(o.watchers, w)
	o.mu.Unlock()
}

func (o *ownerRing) owner(a ids.AID) (int, uint64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var best cluster.ViewLine
	found := false
	for _, w := range o.watchers {
		if vl, ok := w.latest(); ok && (!found || vl.Epoch > best.Epoch) {
			best, found = vl, true
		}
	}
	if !found {
		return 0, 0, false
	}
	if o.ring == nil || best.Epoch > o.epoch {
		o.epoch = best.Epoch
		o.ring = cluster.NewRing(best.Live, o.vnodes)
	}
	node, ok := o.ring.Owner(uint64(a))
	return node, o.epoch, ok
}

// member is one clustered hoped child.
type member struct {
	id      int
	addr    string
	pid     ids.PID
	dataDir string
	child   *exec.Cmd
	watch   *viewWatcher
}

// RunChurn executes one churn storm; see the package comment above for
// the shape. The returned result is valid even on error.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	var res ChurnResult
	if err := cfg.norm(); err != nil {
		return res, err
	}
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.Log, format+"\n", args...) }
	start := time.Now()
	suspect, dead := cfg.DeadAfter/4, cfg.DeadAfter
	lease := 4 * cfg.DeadAfter

	dataRoot := cfg.DataRoot
	if dataRoot == "" {
		dir, err := os.MkdirTemp("", "hope-churn-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		dataRoot = dir
	}

	// Client node 0 lives in-process and is NOT a cluster member: it
	// drives workloads against every member over static peering, and its
	// own detector + lease resolve whatever the killed member owned —
	// the same layering a real external caller would run. In survival
	// storms its adjudications additionally route by the ring the
	// members announce (ownerRing), as a real external caller's would.
	// Routed adjudication adds two network hops to every client
	// assumption, so survival mode doubles the client's lease: still a
	// liveness backstop, without spurious denials of live routed work.
	owners := &ownerRing{vnodes: cfg.VNodes}
	ncfg := node.Config{Tracer: cfg.Tracer, SuspectAfter: suspect, DeadAfter: dead, Lease: lease}
	if cfg.Survive {
		ncfg.Lease, ncfg.Ring = 2*lease, owners.owner
	}
	cn, tap, err := startClient(ncfg)
	if err != nil {
		return res, err
	}
	defer cn.Close(0)
	client, eng := cn.Wire(), cn.Engine()

	members := make(map[int]*member)
	defer func() {
		for _, m := range members {
			if m.child != nil {
				m.child.Process.Signal(os.Interrupt)
				m.child.Wait()
			}
		}
	}()

	memberArgs := func(id int, dataDir string, joinAddr string) []string {
		args := []string{
			"--node", strconv.Itoa(id), "--listen", "127.0.0.1:0",
			"--serve", "printserver", "--peer", "0=" + client.Addr(),
			"--drain-timeout", "2s",
			"--data-dir", dataDir, "--fsync", cfg.Fsync,
			"--suspect-after", suspect.String(),
			"--dead-after", dead.String(),
			"--lease", lease.String(),
			"--gossip-every", cfg.GossipEvery.String(),
			"--vnodes", strconv.Itoa(cfg.VNodes),
		}
		if cfg.Watermark {
			// Fast rounds so the frontier advances within the storm's
			// post-churn settling windows, not at hoped's default 250ms.
			args = append(args, "--watermark", "--watermark-every", "50ms")
		}
		if cfg.Survive {
			// --data-root lets each member read its dead peers' WALs to
			// adopt its ring slice of the corpse's shard and processes.
			args = append(args, "--data-root", dataRoot)
		}
		if joinAddr == "" {
			args = append(args, "--seed-node")
		} else {
			args = append(args, "--join", joinAddr)
		}
		return args
	}
	launch := func(id int, joinAddr string) (*member, error) {
		m := &member{id: id, dataDir: filepath.Join(dataRoot, fmt.Sprintf("node%d", id))}
		child, boot, w, err := startWatched(cfg.HopedBin, id, memberArgs(id, m.dataDir, joinAddr))
		if err != nil {
			return nil, err
		}
		m.child, m.addr, m.pid, m.watch = child, boot.Addr, boot.PID, w
		if wire.NodeOf(m.pid) != id {
			child.Process.Kill()
			child.Wait()
			return nil, fmt.Errorf("node %d root PID %v is outside its namespace", id, m.pid)
		}
		client.SetPeer(id, m.addr)
		owners.add(m.watch)
		members[id] = m
		logf("node %d up: addr=%s pid=%v join=%q", id, m.addr, m.pid, joinAddr)
		return m, nil
	}

	// Bootstrap: node 1 seeds a fresh cluster; everyone else joins
	// through it and is absorbed by gossip.
	seedMember, err := launch(1, "")
	if err != nil {
		return res, err
	}
	for id := 2; id <= cfg.Nodes; id++ {
		if _, err := launch(id, "1="+seedMember.addr); err != nil {
			return res, err
		}
	}

	// agreed reports whether every listed member's latest view shows
	// exactly wantLive live (and returns the views when so).
	agreed := func(watching []*member, wantLive []int) (map[int]cluster.View, bool) {
		views := make(map[int]cluster.View, len(watching))
		var epoch uint64
		for i, m := range watching {
			vl, ok := m.watch.latest()
			if !ok || !equalInts(vl.Live, wantLive) {
				return nil, false
			}
			if i == 0 {
				epoch = vl.Epoch
			} else if vl.Epoch != epoch {
				return nil, false
			}
			views[m.id] = viewOfLine(vl)
		}
		return views, true
	}
	awaitAgreement := func(what string, watching []*member, wantLive []int, timeout time.Duration) (map[int]cluster.View, error) {
		deadline := time.Now().Add(timeout)
		for {
			if views, ok := agreed(watching, wantLive); ok {
				return views, nil
			}
			if time.Now().After(deadline) {
				for _, m := range watching {
					vl, _ := m.watch.latest()
					logf("node %d latest view: %+v", m.id, vl)
				}
				return nil, fmt.Errorf("churn: no agreement on %s (want live=%v) within %v", what, wantLive, timeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	initial := make([]*member, 0, cfg.Nodes)
	wantLive := make([]int, 0, cfg.Nodes)
	for id := 1; id <= cfg.Nodes; id++ {
		initial = append(initial, members[id])
		wantLive = append(wantLive, id)
	}
	if _, err := awaitAgreement("bootstrap", initial, wantLive, 30*time.Second); err != nil {
		return res, err
	}
	logf("%8v cluster of %d converged", time.Since(start).Round(time.Millisecond), cfg.Nodes)

	// One streamed pagination workload per initial member, so the kill
	// lands mid-speculation with assumptions owned across the ring.
	type workload struct {
		member *member
		worker *core.Process
		mu     sync.Mutex
		done   int
		rep    rpc.PageReport
	}
	workloads := make([]*workload, 0, cfg.Nodes)
	for _, m := range initial {
		w := &workload{member: m}
		worker, err := eng.SpawnRoot(rpc.StreamedWorker(m.pid, cfg.PageSize, cfg.Reports, func(r rpc.PageReport) {
			w.mu.Lock()
			w.rep, w.done = r, w.done+1
			w.mu.Unlock()
		}))
		if err != nil {
			return res, fmt.Errorf("spawn workload for node %d: %w", m.id, err)
		}
		w.worker = worker
		workloads = append(workloads, w)
	}

	// Let speculation build before the kill: enough frames in flight
	// that the victim owns live assumptions when it dies.
	progress := time.Now().Add(30 * time.Second)
	for client.WireStats().FramesIn < uint64(cfg.Nodes*8) {
		if time.Now().After(progress) {
			return res, fmt.Errorf("churn: workloads made no progress: wire %v", client.WireStats())
		}
		time.Sleep(time.Millisecond)
	}

	// SIGKILL one member mid-speculation, seed-chosen. No drain, no WAL
	// close, no goodbye gossip — the survivors must diagnose the death
	// themselves and re-own what the corpse held.
	rng := rand.New(rand.NewSource(cfg.Seed))
	victim := members[1+rng.Intn(cfg.Nodes)]
	if cfg.Survive {
		// Hold the kill until the victim demonstrably hosts part of the
		// shard and its WAL can rebirth its root server: exports are
		// tombstoned only when shipped on a view change, so once its WAL
		// shows one the adoption count is ≥1 no matter how fast the
		// workload adjudicates, and the transplant fence is exercised
		// only if the journal extract includes the server. The client
		// frame gate above is satisfied by membership gossip alone and
		// says nothing about routed machines.
		hostedBy := time.Now().Add(30 * time.Second)
		for {
			ex, err := durable.ReadExtract(victim.dataDir, victim.id)
			if err == nil && ex.ProcErr != nil {
				err = ex.ProcErr
			}
			if err == nil && len(ex.AIDExports) > 0 && ex.Procs[victim.pid] != nil {
				logf("%8v node %d hosts %d machine(s); killing it",
					time.Since(start).Round(time.Millisecond), victim.id, len(ex.AIDExports))
				break
			}
			if time.Now().After(hostedBy) {
				return res, fmt.Errorf("churn: node %d never hosted a machine and its server (last read: err=%v)", victim.id, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	res.Killed = victim.id
	tKill := time.Now()
	if err := victim.child.Process.Kill(); err != nil {
		return res, fmt.Errorf("SIGKILL node %d: %w", victim.id, err)
	}
	victim.child.Wait()
	victim.child = nil
	delete(members, victim.id)
	logf("%8v SIGKILL node %d (speculation in flight)", time.Since(start).Round(time.Millisecond), victim.id)

	// Detection: every survivor's view must converge on the death.
	survivors := make([]*member, 0, len(members))
	survLive := make([]int, 0, len(members))
	for id := 1; id <= cfg.Nodes; id++ {
		if m, ok := members[id]; ok {
			survivors = append(survivors, m)
			survLive = append(survLive, id)
		}
	}
	detectDeadline := time.Now().Add(30 * time.Second)
	for _, m := range survivors {
		for {
			if at, ok := m.watch.firstDead(victim.id); ok {
				lat := at.Sub(tKill)
				if lat < 0 {
					lat = 0 // pre-kill suspicion resolved into death evidence
				}
				res.Detect = append(res.Detect, lat)
				logf("%8v node %d saw node %d dead after %v",
					time.Since(start).Round(time.Millisecond), m.id, victim.id, lat.Round(time.Millisecond))
				break
			}
			if time.Now().After(detectDeadline) {
				return res, fmt.Errorf("churn: node %d never announced node %d dead", m.id, victim.id)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Survival storms: every survivor must announce its ring slice of the
	// corpse's WAL shard and of its user processes (either count may be 0
	// for a survivor whose slice is empty, but both announcements are
	// mandatory — they prove the adoption path ran). In total at least one
	// machine must move, or the kill did not land mid-speculation and the
	// storm proved nothing, and at least the victim's root server must be
	// reborn. Each latency is kill → the earliest announcement: how long
	// the corpse's shard and processes were dark.
	announced := make(map[int][]core.TransplantPair)
	if cfg.Survive {
		adoptDeadline := time.Now().Add(30 * time.Second)
		var firstAdopt, firstTpl time.Time
		for _, m := range survivors {
			for {
				al, adopted := m.watch.adoptedFrom(victim.id)
				tl, transplanted := m.watch.transplantedFrom(victim.id)
				if adopted && transplanted {
					res.Adopted += al.count
					res.Transplanted += tl.procs
					announced[m.id] = tl.pairs
					if firstAdopt.IsZero() || al.at.Before(firstAdopt) {
						firstAdopt = al.at
					}
					if firstTpl.IsZero() || tl.at.Before(firstTpl) {
						firstTpl = tl.at
					}
					logf("%8v node %d adopted %d machine(s) and %d process(es) from node %d",
						time.Since(start).Round(time.Millisecond), m.id, al.count, tl.procs, victim.id)
					break
				}
				if time.Now().After(adoptDeadline) {
					return res, fmt.Errorf("churn: node %d never announced its adoption from node %d (ADOPTED %v, TRANSPLANTED %v)",
						m.id, victim.id, adopted, transplanted)
				}
				time.Sleep(time.Millisecond)
			}
		}
		if res.Adopted < 1 {
			return res, fmt.Errorf("churn: survivors adopted 0 machines from node %d — nothing was in flight at the kill", victim.id)
		}
		if res.Transplanted < 1 {
			return res, fmt.Errorf("churn: survivors transplanted 0 processes from node %d — its WAL held none", victim.id)
		}
		res.AdoptLatency = max(firstAdopt.Sub(tKill), 0)
		res.TransplantLatency = max(firstTpl.Sub(tKill), 0)
		logf("%8v adopted %d machine(s) and %d process(es) total, latency %v / %v",
			time.Since(start).Round(time.Millisecond), res.Adopted, res.Transplanted,
			res.AdoptLatency.Round(time.Millisecond), res.TransplantLatency.Round(time.Millisecond))
	}

	// Resolution: the survivors' workloads must complete fully definite,
	// and the doomed one too in survival storms. Otherwise it must
	// quiesce — every assumption the victim owned denied (detector or
	// lease) and dependents rolled back.
	quiesce := time.Now().Add(90 * time.Second)
	for _, w := range workloads {
		doomed := w.member.id == victim.id
		for {
			st := w.worker.Snapshot()
			w.mu.Lock()
			completed := w.done > 0
			w.mu.Unlock()
			settled := completed && st.Completed && st.AllDefinite && client.Inflight() == 0
			if doomed && !cfg.Survive {
				// Without survival the doomed workload only has to quiesce:
				// its orphans denied, its dependents rolled back.
				settled = st.Completed && client.Inflight() == 0 && (st.AllDefinite || eng.AutoDenied() > 0)
			}
			if settled {
				res.Rollbacks += st.Restarts
				if doomed {
					res.Resolve = time.Since(tKill)
					if cfg.Survive {
						// The doomed workload COMPLETED against the reborn
						// server — fully definite, every report delivered —
						// instead of quiescing by denial. That retained
						// history is its one final outcome.
						res.TransplantOutcomes = 1
					}
				}
				break
			}
			if time.Now().After(quiesce) {
				return res, fmt.Errorf("churn: no quiescence for node %d workload: worker completed=%v definite=%v restarts=%d deadAIDs=%d inflight=%d autodenied=%d routing=%+v",
					w.member.id, st.Completed, st.AllDefinite, st.Restarts, len(st.DeadAIDs),
					client.Inflight(), eng.AutoDenied(), eng.RoutingStats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	logf("%8v quiesced: resolve=%v rollbacks=%d autodenied=%d",
		time.Since(start).Round(time.Millisecond), res.Resolve.Round(time.Millisecond), res.Rollbacks, eng.AutoDenied())

	// Transplant fence: the survivors' agreed post-death views must
	// designate the announced adoptions — every corpse process reborn
	// exactly once, at its ring owner — and the doomed workload must have
	// reached exactly one final outcome. Checked before the join: adoption
	// happened at death time, under the post-death ring.
	if cfg.Survive {
		postDeath, err := awaitAgreement("post-death membership", survivors, survLive, 30*time.Second)
		if err != nil {
			return res, err
		}
		if err := oracle.CheckTransplant(victim.id, wire.NodeOf, postDeath, cfg.VNodes,
			announced, map[ids.PID]int{victim.pid: res.TransplantOutcomes}); err != nil {
			return res, err
		}
		logf("%8v transplant fence holds: %d rebirth(s), %d final outcome(s) for the doomed workload",
			time.Since(start).Round(time.Millisecond), res.Transplanted, res.TransplantOutcomes)
	}

	// Late join: a fresh member (fresh ID — the victim's ID is dead
	// forever, sticky death guarantees it) joins through a survivor and
	// must be absorbed into every survivor's view with a ring share.
	joiner := cfg.Nodes + 1
	res.Joined = joiner
	tJoin := time.Now()
	if _, err := launch(joiner, fmt.Sprintf("%d=%s", survivors[0].id, survivors[0].addr)); err != nil {
		return res, err
	}
	finalMembers := append(append([]*member(nil), survivors...), members[joiner])
	finalLive := append(append([]int(nil), survLive...), joiner)
	finalViews, err := awaitAgreement("post-join membership", finalMembers, finalLive, 30*time.Second)
	if err != nil {
		return res, err
	}
	res.JoinLag = time.Since(tJoin)
	tAgreed := time.Now()
	res.FinalEpoch = finalViews[survivors[0].id].Epoch
	res.FinalLive = finalLive

	// The joiner must actually serve (a member with no working engine
	// would pass the view checks and still be useless).
	if line, err := rpc.Probe(eng, members[joiner].pid, rpc.MethodPrint, 30*time.Second); err != nil {
		return res, fmt.Errorf("probe joiner node %d: %w", joiner, err)
	} else if line < 1 {
		return res, fmt.Errorf("joiner node %d printed line %d, want >= 1", joiner, line)
	}

	// Ownership invariant over the final views: agreed live set, agreed
	// ring, every checked key owned by a live member. The keys are the
	// storm's root PIDs (the victim's included — its namespace must
	// re-own deterministically) plus every assumption the client still
	// holds speculation on (normally none after quiescence).
	keys := []uint64{uint64(victim.pid)}
	for _, m := range finalMembers {
		keys = append(keys, uint64(m.pid))
	}
	for _, a := range eng.SpeculativeAIDs() {
		keys = append(keys, uint64(a))
	}
	if err := oracle.CheckOwnership(finalViews, cfg.VNodes, keys); err != nil {
		return res, err
	}
	ring := cluster.NewRing(finalLive, cfg.VNodes)
	res.JoinShare = ring.Shares()[joiner]
	if res.JoinShare <= 0 {
		return res, fmt.Errorf("churn: joiner node %d owns no share of the ring %v", joiner, ring)
	}

	// Survival storms: the WAL-visible hosted tables of the final members
	// must partition by the final ring — every live machine hosted by
	// exactly one node, and that node its ring owner. The members are
	// still running, so each table is read forensically mid-flight and
	// polled: a snapshot torn across a transfer (source exported, target
	// not yet landed) or a checkpoint rewrite heals on the next read.
	if cfg.Survive {
		migrateDeadline := time.Now().Add(30 * time.Second)
		for {
			hosted := make(map[int][]uint64, len(finalMembers))
			readable := true
			for _, m := range finalMembers {
				ex, err := durable.ReadExtract(m.dataDir, m.id)
				if err != nil {
					readable = false
					break
				}
				keys := []uint64{}
				for a := range ex.AIDExports {
					keys = append(keys, uint64(a))
				}
				hosted[m.id] = keys
			}
			var err error
			if readable {
				err = oracle.CheckMigration(finalViews, cfg.VNodes, hosted, nil, nil)
				if err == nil {
					total := 0
					for _, keys := range hosted {
						total += len(keys)
					}
					logf("%8v migration partition holds: %d hosted machine(s) across %d members",
						time.Since(start).Round(time.Millisecond), total, len(finalMembers))
					break
				}
			} else {
				err = fmt.Errorf("churn: hosted tables unreadable mid-flight")
			}
			if time.Now().After(migrateDeadline) {
				return res, fmt.Errorf("churn: migration partition never settled: %w", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Remaining invariants, as in the fault storm: liveness (no surviving
	// speculation on anything the victim owned), worker verdict agreement
	// and completeness for survivors, zero protocol violations, FIFO.
	deadOwned := func(a ids.AID) bool { return wire.NodeOf(a.PID()) == victim.id }
	for _, w := range workloads {
		name := fmt.Sprintf("node %d workload", w.member.id)
		if err := oracle.CheckLiveness(name, w.worker.HistorySnapshot(), deadOwned); err != nil {
			return res, err
		}
		doomed := w.member.id == victim.id
		if doomed && !cfg.Survive {
			continue
		}
		// In survival storms the doomed workload completed against the
		// reborn server: its verdicts must agree like any survivor's and
		// every report must have landed.
		if err := oracle.CheckWorker(name, w.worker.Snapshot()); err != nil {
			return res, err
		}
		w.mu.Lock()
		rep := w.rep
		w.mu.Unlock()
		if rep.Totals != cfg.Reports {
			return res, fmt.Errorf("%s printed %d totals, want %d", name, rep.Totals, cfg.Reports)
		}
		if cfg.Survive && !doomed {
			// Adopted, not denied: a spurious denial of a live migrated
			// assumption would roll the worker back at a non-boundary
			// report and insert an extra newpage, so the page layout
			// diverging from the sequential one is the observable symptom
			// of a lost or mis-adjudicated migration. The doomed workload
			// is exempt — rollbacks across the death legitimately insert
			// extra page breaks.
			if want := expectPageBreaks(cfg.PageSize, cfg.Reports); rep.NewPageCalls != want {
				return res, fmt.Errorf("%s made %d newpage calls, want %d (sequential layout)",
					name, rep.NewPageCalls, want)
			}
		}
	}
	for _, m := range finalMembers {
		m.watch.mu.Lock()
		ev := m.watch.evicted
		m.watch.mu.Unlock()
		if ev {
			return res, fmt.Errorf("churn: surviving node %d was evicted", m.id)
		}
	}
	if v := eng.Violations(); v != 0 {
		return res, fmt.Errorf("%d protocol violations", v)
	}
	if bad := tap.Violations(); len(bad) != 0 {
		return res, fmt.Errorf("per-pair FIFO inversions at delivery: %s", strings.Join(bad, "; "))
	}

	// Watermark storms: stability rounds were blocked while the corpse
	// sat unevicted (it answers no sweep and its in-flight frames fail
	// the drain check); after eviction and the join they must resume.
	// Every final member — the joiner included — has at least one boot
	// interval, so the joiner's frontier entry appearing is itself an
	// advance every member must announce at the final view epoch. A
	// member that never does means the protocol did not survive churn.
	if cfg.Watermark {
		stableDeadline := time.Now().Add(30 * time.Second)
		for _, m := range finalMembers {
			for {
				sl, ok := m.watch.stableAt(res.FinalEpoch)
				if ok {
					if lag := sl.at.Sub(tAgreed); lag > res.StableLag {
						res.StableLag = lag
					}
					if m.id == survivors[0].id {
						res.StableFrontier = sl.frontier
					}
					logf("%8v node %d stable at e%d: frontier %s",
						time.Since(start).Round(time.Millisecond), m.id, sl.epoch, sl.frontier)
					break
				}
				if time.Now().After(stableDeadline) {
					return res, fmt.Errorf("churn: node %d never announced a stability frontier at view epoch %d",
						m.id, res.FinalEpoch)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	res.AutoDenied = eng.AutoDenied()
	res.DetectP50 = pctDuration(res.Detect, 50)
	res.DetectP99 = pctDuration(res.Detect, 99)
	res.Elapsed = time.Since(start)
	return res, nil
}

// expectPageBreaks simulates the print server's line counter over one
// sequential run of the pagination workload: each report is a total
// print and a trailer print, with a newpage forced whenever the total
// lands at or past the page boundary. The streamed worker's FIFO
// ordering makes this the unique correct layout, so the count doubles
// as a no-churn control for migrated runs.
func expectPageBreaks(pageSize, reports int) int {
	line, breaks := 0, 0
	for i := 0; i < reports; i++ {
		line++ // the total print
		if line >= pageSize {
			line = 0 // the worker's newpage lands before the trailer
			breaks++
		}
		line++ // the trailer print
	}
	return breaks
}

// pctDuration returns the p-th percentile of samples (nearest-rank).
func pctDuration(samples []time.Duration, p int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := len(s) * p / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
