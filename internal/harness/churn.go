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
// RunChurn is a fixed sequence of named steps; the survival and
// watermark steps run only in storms that turn those modes on.
//
// Latency is measured at the observable boundary, the HOPED VIEW lines:
// detection is SIGKILL → a survivor's first view with the victim dead,
// resolution is SIGKILL → the doomed workload quiescing (every orphaned
// assumption denied and rolled back). Everything derives from
// ChurnConfig.Seed, so a failing run's seed reproduces it.

import (
	"fmt"
	"math/rand"
	"slices"
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
	"github.com/hope-dist/hope/internal/wire"
)

// ChurnConfig parameterizes one membership-churn storm. Setup.Nodes is
// the initial cluster size (default 3); node 1 is the seed.
type ChurnConfig struct {
	Setup

	// Watermark runs every member with --watermark: the storm then also
	// asserts the stability protocol survives the churn — after the
	// join, every final member must announce a HOPED STABLE frontier
	// agreed at the final view epoch, proving rounds resumed once the
	// corpse was evicted and the joiner absorbed.
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
}

func (c *ChurnConfig) norm() error {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	// Someone must survive the kill.
	return c.Setup.norm(2)
}

// churnDeadAfter is the members' failure-detector death threshold, with
// suspicion at a quarter of it (hoped's own default). The client's
// detector and the speculation lease derive from it too.
const churnDeadAfter = time.Second

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

// ownerRing derives the client's routing view from the members' VIEW
// announcements: the freshest epoch any watched member has announced
// wins, and its live set builds the ring (cached per epoch — ownership
// is a pure function of the live set). The client is not a cluster
// member, so this is exactly the stance of a real external caller:
// route where the cluster says ownership lives, and let a stale answer
// be NACKed into a retry.
type ownerRing struct {
	mu       sync.Mutex
	children []*child
	epoch    uint64
	ring     *cluster.Ring
}

func (o *ownerRing) add(c *child) {
	o.mu.Lock()
	o.children = append(o.children, c)
	o.mu.Unlock()
}

func (o *ownerRing) owner(a ids.AID) (int, uint64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var best cluster.ViewLine
	found := false
	for _, c := range o.children {
		if vl, ok := c.view(); ok && (!found || vl.Epoch > best.Epoch) {
			best, found = vl, true
		}
	}
	if !found {
		return 0, 0, false
	}
	if o.ring == nil || best.Epoch > o.epoch {
		o.epoch = best.Epoch
		o.ring = cluster.NewRing(best.Live, cluster.DefaultVNodes)
	}
	node, ok := o.ring.Owner(uint64(a))
	return node, o.epoch, ok
}

// churn is one churn storm in progress: the state its steps share.
type churn struct {
	cfg                  ChurnConfig
	res                  ChurnResult
	start                time.Time
	dataRoot             string
	suspect, dead, lease time.Duration
	owners               *ownerRing
	cn                   *node.Node
	tap                  *oracle.FIFOTap

	servers    []*server // every member launched, in ID order
	workloads  []*workload
	victim     *server
	tKill      time.Time
	survivors  []*server
	announced  map[int][]core.TransplantPair // survivor → its TRANSPLANTED map
	final      []*server                     // survivors and the joiner
	finalViews map[int]cluster.View
	tAgreed    time.Time
}

// RunChurn executes one churn storm; see the comment atop this file for
// the shape. The returned result is valid even on error.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	if err := cfg.norm(); err != nil {
		return ChurnResult{}, err
	}
	r := &churn{
		cfg: cfg, start: time.Now(),
		suspect: churnDeadAfter / 4, dead: churnDeadAfter, lease: 4 * churnDeadAfter,
		owners: &ownerRing{},
	}
	root, cleanup, err := dataRoot()
	if err != nil {
		return r.res, err
	}
	defer cleanup()
	r.dataRoot = root

	// Client node 0 lives in-process and is NOT a cluster member: it
	// drives workloads against every member over static peering, and its
	// own detector + lease resolve whatever the killed member owned —
	// the same layering a real external caller would run. In survival
	// storms its adjudications additionally route by the ring the
	// members announce (ownerRing), as a real external caller's would.
	// Routed adjudication adds two network hops to every client
	// assumption, so survival mode doubles the client's lease: still a
	// liveness backstop, without spurious denials of live routed work.
	ncfg := node.Config{Tracer: cfg.Tracer, SuspectAfter: r.suspect, DeadAfter: r.dead, Lease: r.lease}
	if cfg.Survive {
		ncfg.Lease, ncfg.Ring = 2*r.lease, r.owners.owner
	}
	if r.cn, r.tap, err = startClient(ncfg); err != nil {
		return r.res, err
	}
	defer r.cn.Close(0)
	defer func() { stopAll(r.servers) }()

	for _, step := range []struct {
		on  bool
		run func() error
	}{
		{true, r.bootstrap},
		{cfg.Survive, r.awaitHosted},
		{true, r.kill},
		{true, r.awaitDetection},
		{cfg.Survive, r.awaitAdoption},
		{true, r.quiesce},
		{cfg.Survive, r.checkTransplantFence},
		{true, r.join},
		{true, r.checkOwnership},
		{cfg.Survive, r.checkMigration},
		{true, r.checkInvariants},
		{cfg.Survive, r.checkLayouts},
		{true, r.checkNoEviction},
		{cfg.Watermark, r.awaitStable},
	} {
		if !step.on {
			continue
		}
		if err := step.run(); err != nil {
			return r.res, err
		}
	}
	r.res.AutoDenied = r.cn.Engine().AutoDenied()
	r.res.DetectP50 = pctDuration(r.res.Detect, 50)
	r.res.DetectP99 = pctDuration(r.res.Detect, 99)
	r.res.Elapsed = time.Since(r.start)
	return r.res, nil
}

func (r *churn) logf(format string, args ...any) { narrate(r.cfg.Log, r.start, format, args...) }

// launch starts member id, seeding a fresh cluster when join is "" and
// joining through the join=addr contact otherwise.
func (r *churn) launch(id int, join string) (*server, error) {
	s := newServer(id, r.dataRoot)
	args := append(s.args("127.0.0.1:0", r.cn.Wire().Addr()), livenessArgs(r.suspect, r.dead, r.lease)...)
	if r.cfg.Watermark {
		args = append(args, "--watermark")
	}
	if r.cfg.Survive {
		// --data-root lets each member read its dead peers' WALs to
		// adopt its ring slice of the corpse's shard and processes.
		args = append(args, "--data-root", r.dataRoot)
	}
	if join == "" {
		args = append(args, "--seed-node")
	} else {
		args = append(args, "--join", join)
	}
	boot, err := s.start(r.cfg.HopedBin, args)
	if err != nil {
		return nil, err
	}
	s.addr, s.pid = boot.Addr, boot.PID
	r.servers = append(r.servers, s)
	r.cn.Wire().SetPeer(id, s.addr)
	r.owners.add(s.proc)
	r.logf("node %d up: addr=%s pid=%v join=%q", id, s.addr, s.pid, join)
	return s, nil
}

// awaitAgreement waits until every member in watching announces the
// same epoch with exactly the watching members live, and returns their
// views.
func (r *churn) awaitAgreement(what string, watching []*server) (map[int]cluster.View, error) {
	want := make([]int, len(watching))
	for i, s := range watching {
		want[i] = s.id
	}
	var views map[int]cluster.View
	agreed := func() bool {
		views = make(map[int]cluster.View, len(watching))
		for _, s := range watching {
			vl, ok := s.proc.view()
			if !ok || !slices.Equal(vl.Live, want) {
				return false
			}
			if views[s.id] = viewOfLine(vl); vl.Epoch != views[watching[0].id].Epoch {
				return false
			}
		}
		return true
	}
	if !waitUntil(30*time.Second, 5*time.Millisecond, agreed) {
		for _, s := range watching {
			vl, _ := s.proc.view()
			r.logf("node %d latest view: %+v", s.id, vl)
		}
		return nil, fmt.Errorf("churn: no agreement on %s (want live=%v) within 30s", what, want)
	}
	return views, nil
}

// awaitEach waits up to 30 s until has holds for every member in ss, and
// returns the first for which it still does not (nil when all do).
func awaitEach(ss []*server, has func(*server) bool) *server {
	var missing *server
	waitUntil(30*time.Second, time.Millisecond, func() bool {
		for _, s := range ss {
			if !has(s) {
				missing = s
				return false
			}
		}
		missing = nil
		return true
	})
	return missing
}

// bootstrap seeds a fresh cluster at node 1, joins everyone else through
// it, starts one workload per member and picks the seed's victim.
func (r *churn) bootstrap() error {
	seed, err := r.launch(1, "")
	if err != nil {
		return err
	}
	for id := 2; id <= r.cfg.Nodes; id++ {
		if _, err := r.launch(id, "1="+seed.addr); err != nil {
			return err
		}
	}
	if _, err := r.awaitAgreement("bootstrap", r.servers); err != nil {
		return err
	}
	r.logf("cluster of %d converged", r.cfg.Nodes)

	// One streamed pagination workload per initial member, so the kill
	// lands mid-speculation with assumptions owned across the ring.
	if r.workloads, err = spawnWorkloads(r.cn.Engine(), r.servers, &r.cfg.Setup); err != nil {
		return err
	}
	// Let speculation build before the kill: enough frames in flight
	// that the victim owns live assumptions when it dies.
	client := r.cn.Wire()
	if !waitUntil(30*time.Second, time.Millisecond, func() bool { return client.WireStats().FramesIn >= uint64(r.cfg.Nodes*8) }) {
		return fmt.Errorf("churn: workloads made no progress: wire %v", client.WireStats())
	}
	r.victim = r.servers[rand.New(rand.NewSource(r.cfg.Seed)).Intn(r.cfg.Nodes)]
	return nil
}

// awaitHosted (survival) holds the kill until the victim demonstrably
// hosts part of the shard and its WAL can rebirth its root server:
// exports are tombstoned only when shipped on a view change, so once its
// WAL shows one the adoption count is ≥1 no matter how fast the workload
// adjudicates, and the transplant fence is exercised only if the journal
// extract includes the server. The client frame gate in bootstrap is
// satisfied by membership gossip alone and says nothing about routed
// machines.
func (r *churn) awaitHosted() error {
	v := r.victim
	var err error
	hosted := 0
	if !waitUntil(30*time.Second, time.Millisecond, func() bool {
		ex, e := durable.ReadExtract(v.dataDir, v.id)
		if e == nil {
			e = ex.ProcErr
		}
		if err = e; err != nil {
			return false
		}
		hosted = len(ex.AIDExports)
		return hosted > 0 && ex.Procs[v.pid] != nil
	}) {
		return fmt.Errorf("churn: node %d never hosted a machine and its server (last read: err=%v)", v.id, err)
	}
	r.logf("node %d hosts %d machine(s); killing it", v.id, hosted)
	return nil
}

// kill SIGKILLs the victim mid-speculation. No drain, no WAL close, no
// goodbye gossip — the survivors must diagnose the death themselves and
// re-own what the corpse held.
func (r *churn) kill() error {
	r.res.Killed = r.victim.id
	r.tKill = time.Now()
	if err := r.victim.kill(); err != nil {
		return fmt.Errorf("SIGKILL node %d: %w", r.victim.id, err)
	}
	r.logf("SIGKILL node %d (speculation in flight)", r.victim.id)
	for _, s := range r.servers {
		if s != r.victim {
			r.survivors = append(r.survivors, s)
		}
	}
	return nil
}

// awaitDetection: every survivor's view must converge on the death.
func (r *churn) awaitDetection() error {
	dead := func(s *server) (hopedLine, bool) {
		return s.proc.find("VIEW", false, func(l hopedLine) bool { return slices.Contains(l.view.Dead, r.victim.id) })
	}
	if s := awaitEach(r.survivors, func(s *server) bool { _, ok := dead(s); return ok }); s != nil {
		return fmt.Errorf("churn: node %d never announced node %d dead", s.id, r.victim.id)
	}
	for _, s := range r.survivors {
		l, _ := dead(s)
		lat := max(l.at.Sub(r.tKill), 0) // pre-kill suspicion resolved into death evidence
		r.res.Detect = append(r.res.Detect, lat)
		r.logf("node %d saw node %d dead after %v", s.id, r.victim.id, lat.Round(time.Millisecond))
	}
	return nil
}

// awaitAdoption (survival): every survivor must announce its ring slice
// of the corpse's WAL shard and of its user processes. Either count may
// be 0 for a survivor whose slice is empty, but both announcements are
// mandatory — they prove the adoption path ran. In total at least one
// machine must move, or the kill did not land mid-speculation and the
// storm proved nothing, and at least the victim's root server must be
// reborn. Each latency is kill → the earliest announcement: how long the
// corpse's shard and processes were dark.
func (r *churn) awaitAdoption() error {
	fromVictim := func(l hopedLine) bool { return l.from == r.victim.id }
	adoption := func(s *server) (al, tl hopedLine, adopted, transplanted bool) {
		al, adopted = s.proc.find("ADOPTED", false, fromVictim)
		tl, transplanted = s.proc.find("TRANSPLANTED", false, fromVictim)
		return al, tl, adopted, transplanted
	}
	if s := awaitEach(r.survivors, func(s *server) bool { _, _, a, t := adoption(s); return a && t }); s != nil {
		_, _, a, t := adoption(s)
		return fmt.Errorf("churn: node %d never announced its adoption from node %d (ADOPTED %v, TRANSPLANTED %v)",
			s.id, r.victim.id, a, t)
	}
	r.announced = make(map[int][]core.TransplantPair)
	var firstAdopt, firstTpl time.Time
	for _, s := range r.survivors {
		al, tl, _, _ := adoption(s)
		r.res.Adopted += al.count
		r.res.Transplanted += tl.count
		r.announced[s.id] = tl.pairs
		if firstAdopt.IsZero() || al.at.Before(firstAdopt) {
			firstAdopt = al.at
		}
		if firstTpl.IsZero() || tl.at.Before(firstTpl) {
			firstTpl = tl.at
		}
		r.logf("node %d adopted %d machine(s) and %d process(es) from node %d", s.id, al.count, tl.count, r.victim.id)
	}
	if r.res.Adopted < 1 {
		return fmt.Errorf("churn: survivors adopted 0 machines from node %d — nothing was in flight at the kill", r.victim.id)
	}
	if r.res.Transplanted < 1 {
		return fmt.Errorf("churn: survivors transplanted 0 processes from node %d — its WAL held none", r.victim.id)
	}
	r.res.AdoptLatency = max(firstAdopt.Sub(r.tKill), 0)
	r.res.TransplantLatency = max(firstTpl.Sub(r.tKill), 0)
	r.logf("adopted %d machine(s) and %d process(es) total, latency %v / %v", r.res.Adopted, r.res.Transplanted,
		r.res.AdoptLatency.Round(time.Millisecond), r.res.TransplantLatency.Round(time.Millisecond))
	return nil
}

// mustComplete: the survivors' workloads must complete fully definite,
// and in survival storms the doomed one too, against the reborn server.
// Otherwise the doomed one need only quiesce: every assumption the
// victim owned denied (detector or lease) and dependents rolled back.
func (r *churn) mustComplete(w *workload) bool { return r.cfg.Survive || w.srv != r.victim }

func (r *churn) quiesce() error {
	var err error
	if r.res.Rollbacks, err = awaitQuiescence(r.cn, r.workloads, r.mustComplete); err != nil {
		return err
	}
	doomed := r.workloads[slices.IndexFunc(r.workloads, func(w *workload) bool { return w.srv == r.victim })]
	r.res.Resolve = doomed.settled.Sub(r.tKill)
	if r.cfg.Survive {
		// The doomed workload COMPLETED against the reborn server — fully
		// definite, every report delivered — instead of quiescing by
		// denial. That retained history is its one final outcome.
		r.res.TransplantOutcomes = 1
	}
	r.logf("quiesced: resolve=%v rollbacks=%d autodenied=%d",
		r.res.Resolve.Round(time.Millisecond), r.res.Rollbacks, r.cn.Engine().AutoDenied())
	return nil
}

// checkTransplantFence (survival): the survivors' agreed post-death
// views must designate the announced adoptions — every corpse process
// reborn exactly once, at its ring owner — and the doomed workload must
// have reached exactly one final outcome. Checked before the join:
// adoption happened at death time, under the post-death ring.
func (r *churn) checkTransplantFence() error {
	postDeath, err := r.awaitAgreement("post-death membership", r.survivors)
	if err != nil {
		return err
	}
	if err := oracle.CheckTransplant(r.victim.id, wire.NodeOf, postDeath,
		r.announced, map[ids.PID]int{r.victim.pid: r.res.TransplantOutcomes}); err != nil {
		return err
	}
	r.logf("transplant fence holds: %d rebirth(s), %d final outcome(s) for the doomed workload",
		r.res.Transplanted, r.res.TransplantOutcomes)
	return nil
}

// join launches a fresh member (fresh ID — the victim's ID is dead
// forever, sticky death guarantees it) through a survivor; it must be
// absorbed into every survivor's view, and it must actually serve (a
// member with no working engine would pass the view checks and still be
// useless).
func (r *churn) join() error {
	id := r.cfg.Nodes + 1
	r.res.Joined = id
	tJoin := time.Now()
	joiner, err := r.launch(id, fmt.Sprintf("%d=%s", r.survivors[0].id, r.survivors[0].addr))
	if err != nil {
		return err
	}
	r.final = append(slices.Clone(r.survivors), joiner)
	if r.finalViews, err = r.awaitAgreement("post-join membership", r.final); err != nil {
		return err
	}
	r.res.JoinLag = time.Since(tJoin)
	r.tAgreed = time.Now()
	r.res.FinalEpoch = r.finalViews[r.survivors[0].id].Epoch
	for _, s := range r.final {
		r.res.FinalLive = append(r.res.FinalLive, s.id)
	}
	line, err := rpc.Probe(r.cn.Engine(), joiner.pid, rpc.MethodPrint, 30*time.Second)
	if err != nil {
		return fmt.Errorf("probe joiner node %d: %w", id, err)
	}
	if line < 1 {
		return fmt.Errorf("joiner node %d printed line %d, want >= 1", id, line)
	}
	return nil
}

// checkOwnership: over the final views, an agreed live set, an agreed
// ring, and every checked key owned by a live member. The keys are the
// storm's root PIDs (the victim's included — its namespace must re-own
// deterministically) plus every assumption the client still holds
// speculation on (normally none after quiescence). The joiner must own a
// share of the ring.
func (r *churn) checkOwnership() error {
	keys := []uint64{uint64(r.victim.pid)}
	for _, s := range r.final {
		keys = append(keys, uint64(s.pid))
	}
	for _, a := range r.cn.Engine().SpeculativeAIDs() {
		keys = append(keys, uint64(a))
	}
	if err := oracle.CheckOwnership(r.finalViews, keys); err != nil {
		return err
	}
	ring := cluster.NewRing(r.res.FinalLive, cluster.DefaultVNodes)
	if r.res.JoinShare = ring.Shares()[r.res.Joined]; r.res.JoinShare <= 0 {
		return fmt.Errorf("churn: joiner node %d owns no share of the ring %v", r.res.Joined, ring)
	}
	return nil
}

// checkMigration (survival): the WAL-visible hosted tables of the final
// members must partition by the final ring — every live machine hosted
// by exactly one node, and that node its ring owner. The members are
// still running, so each table is read forensically mid-flight and
// polled: a snapshot torn across a transfer (source exported, target not
// yet landed) or a checkpoint rewrite heals on the next read.
func (r *churn) checkMigration() error {
	var err error
	total := 0
	if !waitUntil(30*time.Second, 10*time.Millisecond, func() bool {
		hosted := make(map[int][]uint64, len(r.final))
		total = 0
		for _, s := range r.final {
			ex, e := durable.ReadExtract(s.dataDir, s.id)
			if e != nil {
				err = fmt.Errorf("churn: hosted tables unreadable mid-flight")
				return false
			}
			keys := []uint64{}
			for a := range ex.AIDExports {
				keys = append(keys, uint64(a))
			}
			hosted[s.id] = keys
			total += len(keys)
		}
		err = oracle.CheckMigration(r.finalViews, hosted, nil, nil)
		return err == nil
	}) {
		return fmt.Errorf("churn: migration partition never settled: %w", err)
	}
	r.logf("migration partition holds: %d hosted machine(s) across %d members", total, len(r.final))
	return nil
}

// checkInvariants runs the shared pass: liveness (no surviving
// speculation on anything the victim owned), and verdict agreement,
// completeness and totals for every workload that had to complete.
func (r *churn) checkInvariants() error {
	return checkInvariants(r.cn.Engine(), r.tap, r.workloads, r.cfg.Reports, r.victim.id, r.mustComplete)
}

// checkLayouts (survival): adopted, not denied. A spurious denial of a
// live migrated assumption would roll a worker back at a non-boundary
// report and insert an extra newpage, so a page layout diverging from
// the sequential one is the observable symptom of a lost or
// mis-adjudicated migration. The doomed workload is exempt — rollbacks
// across the death legitimately insert extra page breaks.
func (r *churn) checkLayouts() error {
	_, want := oracle.ExpectedLayout(r.cfg.PageSize, r.cfg.Reports)
	for _, w := range r.workloads {
		if rep, _ := w.report(); w.srv != r.victim && rep.NewPageCalls != want {
			return fmt.Errorf("node %d workload made %d newpage calls, want %d (sequential layout)",
				w.srv.id, rep.NewPageCalls, want)
		}
	}
	return nil
}

func (r *churn) checkNoEviction() error {
	for _, s := range r.final {
		if _, evicted := s.proc.find("EVICTED", false, nil); evicted {
			return fmt.Errorf("churn: surviving node %d was evicted", s.id)
		}
	}
	return nil
}

// awaitStable (watermark): stability rounds were blocked while the
// corpse sat unevicted (it answers no sweep and its in-flight frames
// fail the drain check); after eviction and the join they must resume.
// Every final member — the joiner included — has at least one boot
// interval, so the joiner's frontier entry appearing is itself an
// advance every member must announce at the final view epoch. Only a
// line whose frontier names every final member counts: one written at
// that epoch before the join does not. A member that never announces one
// means the protocol did not survive churn.
func (r *churn) awaitStable() error {
	covers := func(l hopedLine) bool {
		named := make(map[string]bool)
		for _, entry := range strings.Split(l.frontier, ",") {
			node, _, _ := strings.Cut(entry, ":")
			named[node] = true
		}
		for _, s := range r.final {
			if !named[strconv.Itoa(s.id)] {
				return false
			}
		}
		return l.epoch == r.res.FinalEpoch
	}
	stable := func(s *server) (hopedLine, bool) { return s.proc.find("STABLE", true, covers) }
	if s := awaitEach(r.final, func(s *server) bool { _, ok := stable(s); return ok }); s != nil {
		return fmt.Errorf("churn: node %d never announced a stability frontier naming every final member at view epoch %d", s.id, r.res.FinalEpoch)
	}
	for _, s := range r.final {
		sl, _ := stable(s)
		r.res.StableLag = max(r.res.StableLag, sl.at.Sub(r.tAgreed))
		if s == r.survivors[0] {
			r.res.StableFrontier = sl.frontier
		}
		r.logf("node %d stable at e%d: frontier %s", s.id, sl.epoch, sl.frontier)
	}
	return nil
}

// pctDuration returns the p-th percentile of samples (nearest-rank).
func pctDuration(samples []time.Duration, p int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[min(len(s)*p/100, len(s)-1)]
}
