// Package node composes one HOPE node — the paper's per-node runtime of
// user processes, AID processes and a message system — from one Config:
// a wire transport on TCP, an engine whose PIDs live in the node's
// namespace, and as configured a durable store, a failure detector with
// speculation leases, cluster membership, state survival and the
// stability watermark. It is the only place outside perf/ that builds a
// node; cmd/hoped is its flag front end and documents the HOPED lines
// the node writes to Config.Out.
//
// Durability (DataDir): every wire frame and journal mutation goes to a
// WAL, and a restart replays it: the transport resumes its sequence
// space, root processes their speculative state, the AID table its
// machines, and delivered but unconsumed messages are re-injected in
// arrival order before inbound delivery opens, so a fast-redialing
// peer's resent frames cannot overtake them. A checkpoint every
// CheckpointEvery records bounds the replay.
//
// Liveness (DeadAfter, Lease): a peer silent past DeadAfter is dead —
// its queue dropped, its dialer stopped, every assumption it owned
// auto-denied so dependents roll back instead of waiting forever — and
// an assumption still speculative after Lease is auto-denied too.
//
// Watermark: intervals finalize by the wait-free rule, but outputs wait
// until a double-sweep round agrees that every member's speculation
// below them has settled (DESIGN.md §4.9, §12).
//
// Membership (SeedNode, Join): gossiped views, fed by the detector's
// verdicts, shard AID ownership over a consistent-hash ring of the live
// members. A dead member is buried: wire verdict, adoption, deny. A
// node the cluster declared dead stops serving (Evicted).
//
// Survival (DataRoot, DESIGN.md §13): adjudication goes to the ring
// owner, and a view change ships machines to their new owners. A dead
// member's shard and user processes are adopted, not denied: each
// survivor takes its ring slice from the corpse's WAL, rebirths the
// processes by deterministic replay and announces the old→new map so
// frames addressed to the dead incarnations are forwarded.
//
// A durable node logs its liveness denials, watermark advances, view
// epochs and adoptions, so a restart neither resurrects, re-waits,
// regresses nor loses them.
package node

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"github.com/hope-dist/hope/internal/cluster"
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/durable"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/stability"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/transport"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

// Config describes one node. Each field but the last five is one hoped
// flag, and validation errors name the flag.
type Config struct {
	ID     int            // --node: upper 16 bits of every local PID
	Listen string         // --listen: TCP listen address
	Serve  string         // --serve: root service, "printserver" or "none" ("" = none)
	Peers  map[int]string // --peer: static peer addresses

	DataDir         string // --data-dir: WAL directory ("" = volatile node)
	Fsync           string // --fsync: WAL sync policy ("" = interval; needs DataDir)
	CheckpointEvery int    // --checkpoint-every: records between checkpoints (0 = 4096, < 0 = never; needs DataDir)

	SuspectAfter time.Duration // --suspect-after (0 = DeadAfter/4; needs DeadAfter)
	DeadAfter    time.Duration // --dead-after: failure detector threshold (0 = off)
	Lease        time.Duration // --lease: speculation lease (0 = off)

	// Watermark is --watermark as advertised in the wire handshake:
	// WatermarkOn gates outputs on the stability frontier, WatermarkOff
	// refuses peers that do. The zero value advertises nothing, so an
	// in-process client can drive a cluster of either kind.
	Watermark wire.WatermarkMode

	SeedNode bool           // --seed-node: bootstrap a fresh cluster
	Join     map[int]string // --join: cluster contacts
	DataRoot string         // --data-root: state survival; every member's WAL is DataRoot/node<N>

	Tracer trace.Tracer // receives transport, engine, store and cluster events (nil = discard)
	Out    io.Writer    // the HOPED lines (nil = discard)
	Log    io.Writer    // diagnostics: adoption errors and the shutdown summary (nil = discard)

	// Ring routes adjudications by a ring learned from outside, for a
	// client that is no cluster member: the churn storm's in-process
	// client routes by the views its members announce on stdout. Such a
	// node leases by the minting node, not the ring owner (ownerRule).
	Ring func(ids.AID) (owner int, epoch uint64, ok bool)
	// WrapTransport interposes on the engine's transport: the chaos
	// storms audit per-pair FIFO at the delivery boundary
	// (oracle.FIFOTap), below the engine and above the wire.
	WrapTransport func(*wire.Node) transport.Transport
}

func (c *Config) clustered() bool { return c.SeedNode || len(c.Join) > 0 }

// nodeDir is where node id keeps its WAL under DataRoot.
func (c *Config) nodeDir(id int) string {
	return filepath.Join(c.DataRoot, fmt.Sprintf("node%d", id))
}

// validate rejects every combination the node would otherwise ignore
// or misread, before any socket is bound.
func (c *Config) validate() error {
	if c.ID < 0 || c.ID >= wire.MaxNodes {
		return fmt.Errorf("--node %d out of range [0,%d)", c.ID, wire.MaxNodes)
	}
	// A node that dials its own listen address as a peer produces a
	// silent routing loop.
	for _, f := range []struct {
		flag  string
		addrs map[int]string
	}{{"--peer", c.Peers}, {"--join", c.Join}} {
		if addr, ok := f.addrs[c.ID]; ok {
			return fmt.Errorf("%s %d=%s names this node itself (--node %d); list only other nodes", f.flag, c.ID, addr, c.ID)
		}
	}
	if c.Serve != "" && c.Serve != "none" && c.Serve != "printserver" {
		return fmt.Errorf("unknown --serve %q (want printserver|none)", c.Serve)
	}
	if c.DataDir == "" && (c.Fsync != "" || c.CheckpointEvery != 0) {
		return fmt.Errorf("--fsync/--checkpoint-every need --data-dir")
	}
	if c.SuspectAfter != 0 && c.DeadAfter == 0 {
		return fmt.Errorf("--suspect-after needs --dead-after")
	}
	if c.SuspectAfter > c.DeadAfter && c.DeadAfter > 0 {
		return fmt.Errorf("--suspect-after %v exceeds --dead-after %v", c.SuspectAfter, c.DeadAfter)
	}
	if c.DataRoot == "" {
		return nil
	}
	if !c.clustered() {
		return fmt.Errorf("--data-root needs cluster mode (--seed-node or --join)")
	}
	if filepath.Clean(c.DataDir) != c.nodeDir(c.ID) {
		return fmt.Errorf("--data-root needs --data-dir %s, where survivors read this node's WAL (got %q)", c.nodeDir(c.ID), c.DataDir)
	}
	if c.Serve != "printserver" {
		return fmt.Errorf("--data-root needs --serve printserver (transplant replays the same deterministic body the corpse ran)")
	}
	return nil
}

// Node is one running HOPE node.
type Node struct {
	cfg     Config
	survive bool
	wire    *wire.Node
	store   *durable.Store
	root    ids.PID

	// eng, mgr and agent break the construction cycles: the wire node's
	// callbacks need all three, and all three need the wire node. A
	// callback firing before its target exists drops its event; gossip,
	// the next view change and the next round repeat it.
	eng   atomic.Pointer[core.Engine]
	mgr   atomic.Pointer[cluster.Manager]
	agent atomic.Pointer[stability.Agent]

	evicted chan uint64
}

// logf writes one diagnostic line in hoped's stderr format.
func (n *Node) logf(format string, args ...any) {
	fmt.Fprintf(n.cfg.Log, "hoped: node %d "+format+"\n", append([]any{n.cfg.ID}, args...)...)
}

// Start validates cfg, builds the node, recovers it from its WAL when
// durable, joins or seeds the cluster, and writes HOPED READY to Out.
func Start(cfg Config) (_ *Node, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Out, cfg.Log = cmp.Or(cfg.Out, io.Discard), cmp.Or(cfg.Log, io.Discard)
	n := &Node{cfg: cfg, survive: cfg.DataRoot != "", evicted: make(chan uint64, 1)}
	defer func() {
		if err != nil {
			n.stop()
		}
	}()

	var recov *durable.Recovered
	var recovLine string // the RECOVERED summary; "" when there was nothing to recover
	if cfg.DataDir != "" {
		policy, every := wal.SyncInterval, cfg.CheckpointEvery
		if cfg.Fsync != "" {
			if policy, err = wal.ParsePolicy(cfg.Fsync); err != nil {
				return nil, err
			}
		}
		if every == 0 {
			every = 4096
		}
		if n.store, recov, err = durable.OpenOptions(durable.Options{Dir: cfg.DataDir, NodeID: cfg.ID,
			Policy: policy, Tracer: cfg.Tracer, CheckpointEvery: max(every, 0)}); err != nil {
			return nil, err
		}
		// Snapshot the summary now: the engine claims (and drains) the
		// Restore map when the root process respawns below.
		if !recov.Empty() {
			recovLine = recov.String()
		}
	}

	// A routed node adjudicates through ring owners: its cluster's ring
	// when surviving, else one learned from outside.
	routed := n.survive || cfg.Ring != nil
	wcfg := wire.NodeConfig{
		ID: cfg.ID, Listen: cfg.Listen, Peers: cfg.Peers, Tracer: cfg.Tracer,
		Watermark: cfg.Watermark,
	}
	if cfg.DeadAfter > 0 {
		// A clustered node's first-hand verdicts feed its view, whose
		// OnDeaths buries the dead; a static node buries them itself.
		states := [...]cluster.MemberState{wire.PeerAlive: cluster.StateAlive,
			wire.PeerSuspect: cluster.StateSuspect, wire.PeerDead: cluster.StateDead}
		wcfg.Health = wire.HealthConfig{SuspectAfter: cfg.SuspectAfter, DeadAfter: cfg.DeadAfter}
		wcfg.Health.OnPeerState = func(peer int, st wire.PeerState) {
			if m := n.mgr.Load(); m != nil {
				m.ObserveState(peer, states[st])
			} else if st == wire.PeerDead && !cfg.clustered() {
				n.buried(peer, nil, fmt.Sprintf("node %d declared dead", peer))
			}
		}
		if routed {
			// Frames stranded toward a dead peer come back to the engine's
			// park queue: adjudications for the ring successor, the rest
			// until an adopter's announcement lands.
			wcfg.Health.OnDeadFrame = func(_ int, m *msg.Message) {
				if eng := n.eng.Load(); eng != nil {
					eng.Requeue(m)
				}
			}
		}
	}
	if routed {
		// A peer's adoption announcement: forward frames addressed to the
		// dead incarnations. First mapping wins, so replays are harmless.
		wcfg.Transplant = wire.Channel{
			OnPayload: func(from int, payload []byte) {
				pairs, err := core.DecodeTransplantAnnouncement(payload)
				if eng := n.eng.Load(); err != nil {
					n.logf("transplant announcement from %d: %v", from, err)
				} else if eng != nil {
					eng.InstallTransplantMap(pairs)
				}
			},
		}
	}
	if cfg.clustered() {
		wcfg.Gossip = wire.Channel{
			OnPayload: func(from int, payload []byte) {
				if m := n.mgr.Load(); m != nil {
					m.HandleGossip(from, payload)
				}
			},
			Reply: func(from int) []byte {
				if m := n.mgr.Load(); m != nil {
					return m.GossipReply(from)
				}
				return nil
			},
		}
		if n.survive {
			// Shard handoff rides the out-of-band transfer frame; the
			// shipper re-offers a dropped batch on its next view change.
			wcfg.Transfer = wire.Channel{
				OnPayload: func(from int, payload []byte) {
					if eng := n.eng.Load(); eng != nil {
						if _, err := eng.InstallTransfer(payload); err != nil {
							n.logf("transfer from %d: %v", from, err)
						}
					}
				},
			}
		}
	}
	ecfg := core.Config{PIDBase: wire.PIDBase(cfg.ID), Tracer: cfg.Tracer}
	var stab *stability.Tracker
	if cfg.Watermark == wire.WatermarkOn {
		stab = stability.NewTracker(cfg.ID)
		ecfg.Stability = stab
		if n.store != nil {
			stab.SetFrontier(recov.FrontierView, recov.Frontier)
		}
		wcfg.Stability = wire.Channel{
			OnPayload: func(from int, payload []byte) {
				if a := n.agent.Load(); a != nil {
					a.HandlePayload(from, payload)
				}
			},
		}
	}
	if n.store != nil {
		wcfg.Durable, wcfg.Resume = n.store, recov.Resume
		ecfg.Persist, ecfg.Restore, ecfg.Denied = n.store, recov.Restore, recov.Denied
		wcfg.HoldInbound = true
	}

	if n.wire, err = wire.NewNode(wcfg); err != nil {
		return nil, err
	}
	wn := n.wire

	ecfg.Transport = wn
	if cfg.WrapTransport != nil {
		ecfg.Transport = cfg.WrapTransport(wn)
	}
	if routed {
		owner := cfg.Ring
		if n.survive {
			owner = n.ringOwner
		}
		ecfg.Routing = &core.RoutingConfig{
			Self: cfg.ID, NodeOf: wire.NodeOf, RouterPID: wire.RouterPID, Owner: owner,
			Ship: func(to int, payload []byte) bool { return wn.Transfer(to, payload) },
		}
	}
	if cfg.Lease > 0 {
		rule := ruleFor(&cfg)
		ecfg.Liveness = &core.LivenessConfig{
			Lease: cfg.Lease,
			Owner: func(a ids.AID) core.OwnerStatus {
				return rule.status(a, n.ringOwner, n.adopter, wn.HealthOf)
			},
		}
	}
	eng := core.NewEngine(ecfg)
	n.eng.Store(eng)

	if cfg.Serve == "printserver" {
		p, err := eng.SpawnRoot(rpc.PrintServer())
		if err != nil {
			return nil, err
		}
		n.root = p.PID()
	}

	// Recovery repairs, strictly after the roots exist so redelivered
	// messages find their handlers.
	if n.store != nil {
		if n.survive && len(recov.Transplants) > 0 {
			// Rebirth our own recorded transplants and re-announce them.
			var pairs []core.TransplantPair
			for _, pid := range slices.Sorted(maps.Keys(recov.Transplants)) {
				if _, err := eng.Transplant(pid, rpc.PrintServer(), nil); err != nil {
					n.logf("transplant respawn %v: %v", pid, err)
					continue
				}
				pairs = append(pairs, core.TransplantPair{Old: recov.Transplants[pid].OldPID, New: pid})
			}
			eng.InstallTransplantMap(pairs)
			n.transplanted(cfg.ID, pairs)
		}
		if len(recov.AIDExports) > 0 {
			// The whole pre-crash AID table, before any frame is redelivered
			// to it; with a ring, the first view change ships away whatever
			// the ring moved meanwhile.
			n.adoptShard(cfg.ID, recov.AIDExports, false)
		}
		if recovLine != "" {
			for _, m := range recov.Resend {
				wn.Send(m)
			}
			for _, m := range recov.Redeliver {
				wn.Redeliver(m)
			}
			fmt.Fprintf(cfg.Out, "HOPED RECOVERED node=%d %s\n", cfg.ID, recovLine)
		}
		wn.ReleaseInbound()
	}

	if cfg.clustered() {
		mcfg := cluster.Config{
			Self: cfg.ID, Addr: wn.Addr(), Seeds: cfg.Join, Transport: wn, Tracer: cfg.Tracer,
			OnChange: func(v cluster.View, _ *cluster.Ring) {
				fmt.Fprintln(cfg.Out, cluster.FormatViewLine(cfg.ID, v))
				if n.survive {
					eng.OwnershipChanged() // ship what the new ring moved
				}
			},
			OnDeaths: func(dead []int, v cluster.View, ring *cluster.Ring) {
				for _, id := range dead {
					n.buried(id, ring, fmt.Sprintf("node %d dead in view e%d", id, v.Epoch))
				}
			},
			OnEvicted: func(v cluster.View) {
				fmt.Fprintf(cfg.Out, "HOPED EVICTED node=%d epoch=%d\n", cfg.ID, v.Epoch)
				select {
				case n.evicted <- v.Epoch:
				default:
				}
			},
		}
		if n.store != nil {
			mcfg.EpochFloor = recov.ViewEpoch
			mcfg.Persist = n.store.ViewChanged
		}
		mgr, err := cluster.New(mcfg)
		if err != nil {
			return nil, err
		}
		n.mgr.Store(mgr)
		// Announce the bootstrap view before READY so watchers always see
		// at least one VIEW line (OnChange only fires on changes).
		fmt.Fprintln(cfg.Out, cluster.FormatViewLine(cfg.ID, mgr.View()))
		mgr.Start()
	}

	// Stability rounds: members come from the cluster view when
	// clustered, else the static peer set at epoch 0.
	if stab != nil {
		static := append(slices.Collect(maps.Keys(cfg.Peers)), cfg.ID)
		slices.Sort(static)
		agent := stability.NewAgent(stability.Config{
			Node: cfg.ID, Tracker: stab, Send: wn.Stability, Quiet: eng.Quiet, Seqs: wn.MsgSeqs,
			Tracer: cfg.Tracer,
			Members: func() (uint64, []int) {
				if m := n.mgr.Load(); m != nil {
					v := m.View()
					return v.Epoch, v.Live()
				}
				return 0, static
			},
			OnAdvance: func(view uint64, frontier map[int]uint32) {
				if n.store != nil {
					n.store.WatermarkAdvanced(view, frontier)
				}
				eng.FlushStable()
				fmt.Fprintf(cfg.Out, "HOPED STABLE node=%d epoch=%d frontier=%s\n",
					cfg.ID, view, stability.FormatFrontier(frontier))
			},
		})
		n.agent.Store(agent)
		agent.Start()
	}

	fmt.Fprintf(cfg.Out, "HOPED READY node=%d addr=%s pid=%d\n", cfg.ID, wn.Addr(), uint64(n.root))
	return n, nil
}

// buried is the one death handler, run once per dead peer (detector
// verdict on a static node, view on a clustered one): wire verdict,
// adoption, then the deny, which skips transplanted processes — their
// reborn incarnations re-adjudicate what they minted.
func (n *Node) buried(id int, ring *cluster.Ring, reason string) {
	eng := n.eng.Load()
	if eng == nil {
		return // nothing was minted yet
	}
	n.wire.DeclarePeerDead(id)
	// An external client has no WAL under DataRoot: nothing to adopt.
	if n.survive {
		if _, err := os.Stat(n.cfg.nodeDir(id)); err == nil {
			n.adoptCorpse(eng, id, ring)
		}
	}
	denied := eng.DenyOwned(func(pid ids.PID) bool {
		_, adopted := eng.Adopter(pid)
		return wire.NodeOf(pid) == id && !adopted
	}, reason)
	n.logf("denied %d assumptions of dead node %d (%s)", denied, id, reason)
}

// ringOwner is the AID's owner on the cluster ring and the view epoch
// read with it (false before bootstrap: a routed frame parks, retries).
func (n *Node) ringOwner(a ids.AID) (int, uint64, bool) {
	m := n.mgr.Load()
	if m == nil {
		return 0, 0, false
	}
	owner, ok := m.Ring().Owner(uint64(a))
	return owner, m.Epoch(), ok
}

// adopter returns the newest incarnation of a transplanted process.
func (n *Node) adopter(pid ids.PID) (ids.PID, bool) {
	if eng := n.eng.Load(); eng != nil {
		return eng.Adopter(pid)
	}
	return 0, false
}

// adoptCorpse takes over this node's ring slice of dead member id, read
// from its WAL in one fold.
func (n *Node) adoptCorpse(eng *core.Engine, id int, ring *cluster.Ring) {
	ex, err := durable.ReadExtract(n.cfg.nodeDir(id), id)
	if err != nil {
		n.logf("adopt from dead node %d: %v", id, err)
		return
	}
	if ex.StoppedAt != "" {
		n.logf("adopt from dead node %d: WAL read stopped at %s", id, ex.StoppedAt)
	}
	// Our slice of its user processes first: a reborn process
	// re-adjudicates its own assumptions, so the deny that follows skips
	// them. An empty slice is announced too: it proves the path ran.
	if ex.ProcErr != nil {
		n.logf("transplant from dead node %d: %v", id, ex.ProcErr)
	} else {
		own := func(pid ids.PID) bool { return ring.Owns(n.cfg.ID, uint64(pid)) }
		pairs, err := eng.AdoptProcesses(id, ex.Procs, own, rpc.PrintServer())
		if err != nil {
			n.logf("transplant from dead node %d: %v", id, err)
		}
		n.transplanted(id, pairs)
		if len(pairs) > 0 {
			// The corpse's swallowed output and its adopted processes' inbox
			// backlog; receivers absorb duplicates like rollback re-sends.
			eng.ReinjectCorpseTraffic(append(ex.Resend, ex.Unacked...), ex.Orphans)
		}
	}
	// Then our ring slice of the shard (slices partition, so no machine
	// is adopted twice; DenyOwned's grant-epoch check skips them).
	n.adoptShard(id, ex.AIDExports, true)
	// Frames the corpse acked but never consumed exist only in its WAL:
	// requeue their adjudications through our ring (owners deduplicate).
	// Its unconsumed Data is the orphans ReinjectCorpseTraffic re-sent.
	for _, m := range ex.Unconsumed {
		if m.Kind.Adjudication() {
			eng.Requeue(m)
		}
	}
}

// transplanted announces processes reborn off node from's WAL (from is
// this node on a restart): one HOPED TRANSPLANTED line, and the old→new
// map to every live member and static peer (external clients ride
// --peer and need it too). Receivers keep the first mapping.
func (n *Node) transplanted(from int, pairs []core.TransplantPair) {
	mapping := make([]string, len(pairs))
	for i, p := range pairs {
		mapping[i] = fmt.Sprintf("%d:%d", uint64(p.Old), uint64(p.New))
	}
	fmt.Fprintf(n.cfg.Out, "HOPED TRANSPLANTED node=%d from=%d procs=%d map=%s\n",
		n.cfg.ID, from, len(pairs), cmp.Or(strings.Join(mapping, ","), "-"))
	if len(pairs) == 0 {
		return
	}
	payload := core.EncodeTransplantAnnouncement(pairs)
	targets := make(map[int]bool, len(n.cfg.Peers))
	for id := range n.cfg.Peers {
		targets[id] = true
	}
	if m := n.mgr.Load(); m != nil {
		for _, id := range m.View().Live() {
			targets[id] = true
		}
	}
	delete(targets, n.cfg.ID)
	for id := range targets {
		n.wire.Transplant(id, payload)
	}
}

// adoptShard installs AID machines exported in node from's WAL (from is
// this node itself on a restart) and announces the count. onlyOwned
// keeps only the machines this node's ring assigns to it.
func (n *Node) adoptShard(from int, exports map[ids.AID][]byte, onlyOwned bool) {
	count, err := n.eng.Load().InstallExports(exports, onlyOwned)
	if err != nil {
		n.logf("shard adoption from node %d: %v", from, err)
		return
	}
	fmt.Fprintf(n.cfg.Out, "HOPED ADOPTED node=%d from=%d count=%d\n", n.cfg.ID, from, count)
}

// Wire is the node's transport.
func (n *Node) Wire() *wire.Node { return n.wire }

// Engine is the node's HOPE engine.
func (n *Node) Engine() *core.Engine { return n.eng.Load() }

// Cluster is the membership manager (nil unless clustered).
func (n *Node) Cluster() *cluster.Manager { return n.mgr.Load() }

// Agent is the stability agent (nil without the watermark).
func (n *Node) Agent() *stability.Agent { return n.agent.Load() }

// Root is the root service's PID (0 when the node serves none).
func (n *Node) Root() ids.PID { return n.root }

// Evicted delivers the view epoch at which the cluster declared this
// node dead; its owner should Close it rather than serve a lost shard.
func (n *Node) Evicted() <-chan uint64 { return n.evicted }

// Close gives in-flight frames up to drain to be acknowledged (what is
// left is dropped, and survives in a durable node's WAL for the next
// boot to resend), writes the shutdown summary to Log and stops the node.
// A timed-out drain names each peer still holding frames.
func (n *Node) Close(drain time.Duration) {
	if !n.wire.DrainFor(drain) {
		held := "queued toward:"
		for _, ph := range n.wire.PeerHealth() {
			if ph.QueuedFrames > 0 {
				held += fmt.Sprintf(" node %d (%v) %d", ph.Node, ph.State, ph.QueuedFrames)
			}
		}
		n.logf("shutdown drain timed out after %v with %d frames unacked (dropping); %s", drain, n.wire.Inflight(), held)
	}
	n.logf("shutting down; net %v; wire %v", n.wire.Stats(), n.wire.WireStats())
	if n.survive {
		n.logf("routing %+v", n.Engine().RoutingStats())
	}
	if m := n.mgr.Load(); m != nil {
		n.logf("cluster %v", m.Stats())
	}
	if n.store != nil && n.store.EncodeErrors() > 0 {
		n.logf("had %d WAL encode failures (affected processes restart fresh)", n.store.EncodeErrors())
	}
	n.stop()
}

// stop stops whatever Start built, in reverse order.
func (n *Node) stop() {
	if a := n.agent.Load(); a != nil {
		a.Stop()
	}
	if m := n.mgr.Load(); m != nil {
		m.Stop()
	}
	if eng := n.eng.Load(); eng != nil {
		eng.Shutdown()
	}
	if n.wire != nil {
		n.wire.Close()
	}
	if n.store != nil {
		if err := n.store.Close(); err != nil {
			n.logf("WAL close: %v", err)
		}
	}
}
