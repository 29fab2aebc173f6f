// Command hoped runs one HOPE node as a standalone OS process: a wire
// transport listening on TCP plus an engine whose PIDs live in the
// node's namespace. Peers are static — every other node is named up
// front by ID and address (late peers can be omitted and added by
// restarting; the transport queues until the address is known only when
// set via --peer 0=... at startup).
//
// Usage:
//
//	hoped --node 1 --listen 127.0.0.1:7101 --peer 0=127.0.0.1:7100
//
// On startup hoped prints one machine-parseable line to stdout:
//
//	HOPED READY node=1 addr=127.0.0.1:7101 pid=281474976710657
//
// where addr is the resolved listen address (useful with --listen :0)
// and pid is the PID of the root service process (--serve), which
// remote workers address directly: under the wire transport a PID is
// the routing address. It then serves until SIGINT/SIGTERM, printing
// transport statistics on the way out.
//
// With --data-dir the node is durable: every wire frame and journal
// mutation is logged to a WAL in that directory, and a restart replays
// the log — resuming the transport's sequence space, restoring each
// root process to its pre-crash speculative state, and re-injecting
// delivered-but-unconsumed messages. A recovering boot prints, before
// READY:
//
//	HOPED RECOVERED node=1 records=412 procs=1 redeliver=3 resend=0 unacked=2 denied=0 torn=0 in 1.2ms from=389 tail=23 ckpt
//
// Restart cost is bounded by --checkpoint-every N (default 4096): every
// N records the node writes a durable checkpoint into the WAL and
// prunes the segments behind it, so recovery replays checkpoint+tail
// instead of the full history (from= is the checkpoint LSN, tail= the
// records replayed after it; 0 disables checkpointing).
//
// With --dead-after the wire failure detector runs: a peer silent past
// --suspect-after is Suspect (and probed), past --dead-after it is Dead —
// its resend queue is dropped, redialing stops, and every assumption it
// owned is auto-denied so local dependents roll back instead of waiting
// forever. --lease bounds the other direction: any assumption still
// speculative after the lease (for example one whose confirming reply
// died with a remote peer) is auto-denied too. Liveness decisions are
// WAL-durable on a durable node — a restart does not resurrect them.
// --stats-every prints wire counters, per-peer health and the stability
// agent's round counters to stderr periodically.
//
// With --watermark the node gates client-visible outputs on a
// cluster-wide stability watermark: intervals still finalize locally by
// the wait-free rule, but prints and RPC replies are held until a
// GVT-style double-sweep round agrees that every member's speculation
// below them has settled (closing the premature-commit window of
// DESIGN.md §4.9). Each agreed advance prints:
//
//	HOPED STABLE node=1 epoch=5 frontier=0:41,1:17
//
// and on a durable node is WAL-logged, so a restart re-releases
// already-stable outputs instead of waiting for a fresh round. Every
// node must run with the same setting: mixing --watermark on and off
// across a cluster, or across restarts of one durable node, is
// unsupported.
//
// With --seed-node or --join the node runs dynamic cluster membership
// instead of a purely static peer set: views are gossiped piggyback on
// the wire connections, the failure detector's verdicts feed the view,
// and a consistent-hash ring over the live members shards AID
// ownership. A fresh cluster starts from one node run with --seed-node;
// everyone else points --join at any live member and is absorbed. Every
// view change prints a machine-parseable line:
//
//	HOPED VIEW node=2 epoch=5 live=0,1,2 dead=3
//
// and a node the cluster has declared dead (a partitioned node gossiped
// about posthumously) prints HOPED EVICTED and shuts down rather than
// serve a shard it no longer owns. On a durable node the published view
// epoch is WAL-logged, so a restart resumes past it and can never
// gossip a view staler than one it already announced.
//
// --data-root turns on state survival (DESIGN.md §13). It names the
// parent directory holding every member's WAL as node<N> subdirectories
// and needs cluster mode, --data-dir <data-root>/node<N> (survivors read
// a dead member's WAL exactly there) and --serve printserver. A
// surviving cluster does three things together. AID adjudication is
// ownership-routed: every guess/affirm/deny goes to the ring-designated
// owner for the current view epoch, stale-view senders are NACKed and
// retry, and on a view change the node ships the assumption machines it
// no longer owns to their new owners over the out-of-band transfer
// frame. A dead owner's shard is adopted rather than denied: each
// survivor replays the corpse's WAL-checkpointed AID table and absorbs
// the machines its own ring now assigns to it, printing:
//
//	HOPED ADOPTED node=2 from=3 count=5
//
// And a dead member's user processes are transplanted: each survivor
// takes the ring slice of the corpse's processes and rebirths them by
// deterministic replay under its own PID namespace. The definite prefix
// of each process is trusted; the speculative suffix is rolled back and
// re-run from the replay frontier. Every survivor announces its slice:
//
//	HOPED TRANSPLANTED node=2 from=3 procs=1 map=844424930131970:562949953421314
//
// (map is old:new PID pairs, "-" when the slice is empty) and
// broadcasts the mapping to its peers, so frames still addressed to the
// dead incarnations are forwarded to the reborn ones.
//
// Without --data-root a clustered node is unrouted and a dead member's
// assumptions are denied. A durable node re-adopts its own AID table on
// restart either way, and its own transplants when surviving (from=
// names itself). Every member must agree on --data-root; mixing
// surviving and non-surviving members is unsupported.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hope-dist/hope/internal/cluster"
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/durable"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/stability"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

// peerMap collects repeated --peer N=host:port flags.
type peerMap map[int]string

func (p peerMap) String() string {
	parts := make([]string, 0, len(p))
	for id, addr := range p {
		parts = append(parts, fmt.Sprintf("%d=%s", id, addr))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (p peerMap) Set(v string) error {
	id, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want N=host:port, got %q", v)
	}
	n, err := strconv.Atoi(id)
	if err != nil {
		return fmt.Errorf("bad node id %q: %v", id, err)
	}
	if n < 0 || n >= wire.MaxNodes {
		return fmt.Errorf("node id %d out of range [0,%d)", n, wire.MaxNodes)
	}
	if prev, dup := p[n]; dup {
		return fmt.Errorf("duplicate node id %d (already mapped to %s)", n, prev)
	}
	p[n] = addr
	return nil
}

// formatTransplantMap renders old:new PID pairs for the TRANSPLANTED
// line ("-" when the slice was empty).
func formatTransplantMap(pairs []core.TransplantPair) string {
	if len(pairs) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(pairs))
	for _, p := range pairs {
		parts = append(parts, fmt.Sprintf("%d:%d", uint64(p.Old), uint64(p.New)))
	}
	return strings.Join(parts, ",")
}

// checkNotSelf rejects a peer/join entry naming this node itself: a
// node that dials its own listen address as a peer produces a silent
// routing loop, so the mistake must die at flag validation.
func checkNotSelf(flagName string, m peerMap, self int) error {
	if addr, ok := m[self]; ok {
		return fmt.Errorf("%s %d=%s names this node itself (--node %d); list only other nodes", flagName, self, addr, self)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hoped:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hoped", flag.ContinueOnError)
	node := fs.Int("node", 1, "this node's ID (upper 16 bits of every local PID)")
	listen := fs.String("listen", "127.0.0.1:0", "TCP listen address")
	serve := fs.String("serve", "printserver", "root service to host (printserver|none)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "max wait for unacked frames on shutdown before dropping them")
	traceTail := fs.Int("trace-tail", 0, "retain the last N transport trace events and dump them on shutdown (0 = off)")
	dataDir := fs.String("data-dir", "", "WAL directory; enables crash recovery (empty = volatile node)")
	fsync := fs.String("fsync", "interval", "WAL sync policy with --data-dir: always|interval|none")
	checkpointEvery := fs.Int("checkpoint-every", 4096, "write a durable checkpoint and prune the WAL behind it every N records, bounding restart replay to checkpoint+tail (0 = full-history replay)")
	suspectAfter := fs.Duration("suspect-after", 0, "mark a silent peer Suspect (and probe it) after this silence (0 = dead-after/4)")
	deadAfter := fs.Duration("dead-after", 0, "declare a silent peer Dead after this silence: drop its queue, stop dialing, auto-deny what it owned (0 = failure detector off)")
	lease := fs.Duration("lease", 0, "auto-deny any assumption still speculative after this long (0 = speculation leases off)")
	statsEvery := fs.Duration("stats-every", 0, "print wire counters, per-peer health and stability round counters to stderr at this interval (0 = off)")
	watermark := fs.Bool("watermark", false, "gate client-visible outputs on the cluster-wide stability watermark (must match on every node; off = finalize externalizes immediately)")
	watermarkEvery := fs.Duration("watermark-every", 0, "fallback cadence of stability rounds when this node initiates; rounds start on demand whenever a member settles with uncovered work (0 = default 250ms)")
	seedNode := fs.Bool("seed-node", false, "bootstrap a fresh cluster as its seed (enables dynamic membership)")
	gossipEvery := fs.Duration("gossip-every", 0, "membership gossip period (0 = cluster default 150ms)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per member on the ownership ring (0 = default; must match cluster-wide)")
	dataRoot := fs.String("data-root", "", "parent directory holding every member's WAL as node<N> subdirectories; turns on state survival: ownership routing, adoption of a dead owner's AID shard, transplant of a dead member's processes (needs cluster mode, --data-dir <data-root>/node<N> and --serve printserver; must match cluster-wide)")
	peers := peerMap{}
	fs.Var(peers, "peer", "peer address as N=host:port (repeatable)")
	join := peerMap{}
	fs.Var(join, "join", "cluster seed contact as N=host:port (repeatable; enables dynamic membership)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *node < 0 || *node >= wire.MaxNodes {
		return fmt.Errorf("--node %d out of range [0,%d)", *node, wire.MaxNodes)
	}
	// Self-references can only be caught after parsing: flag order is
	// free, so --peer 2=... may well precede --node 2.
	if err := checkNotSelf("--peer", peers, *node); err != nil {
		return err
	}
	if err := checkNotSelf("--join", join, *node); err != nil {
		return err
	}
	clustered := *seedNode || len(join) > 0
	if !clustered && (*gossipEvery != 0 || *vnodes != 0) {
		return fmt.Errorf("--gossip-every/--vnodes need cluster mode (--seed-node or --join)")
	}
	if *watermarkEvery != 0 && !*watermark {
		return fmt.Errorf("--watermark-every needs --watermark")
	}
	survive := *dataRoot != ""
	nodeDir := func(id int) string { return filepath.Join(*dataRoot, fmt.Sprintf("node%d", id)) }
	if survive && !clustered {
		return fmt.Errorf("--data-root needs cluster mode (--seed-node or --join)")
	}
	if survive && filepath.Clean(*dataDir) != nodeDir(*node) {
		return fmt.Errorf("--data-root needs --data-dir %s, where survivors read this node's WAL (got %q)", nodeDir(*node), *dataDir)
	}
	if survive && *serve != "printserver" {
		return fmt.Errorf("--data-root needs --serve printserver (transplant replays the same deterministic body the corpse ran)")
	}

	// A capped recorder keeps the tail of the transport's event stream
	// without growing forever — a hoped process may run for weeks.
	var rec *trace.Recorder
	var tracer trace.Tracer
	if *traceTail > 0 {
		rec = trace.NewRecorderCap(*traceTail)
		tracer = rec
	}

	// Durability: one WAL under --data-dir records wire and engine state;
	// reopening it replays the log into the resume values both layers
	// accept. A volatile node (no --data-dir) skips all of this.
	var store *durable.Store
	var recov *durable.Recovered
	var recovEmpty bool
	var recovLine string
	if *dataDir != "" {
		policy, err := wal.ParsePolicy(*fsync)
		if err != nil {
			return err
		}
		store, recov, err = durable.OpenOptions(durable.Options{
			Dir: *dataDir, NodeID: *node, Policy: policy, Tracer: tracer,
			CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			return err
		}
		// Snapshot the summary now: the engine claims (and drains) the
		// Restore map when the root process respawns below.
		recovEmpty, recovLine = recov.Empty(), recov.String()
		defer func() {
			if err := store.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "hoped: node %d WAL close: %v\n", *node, err)
			}
		}()
	}

	wcfg := wire.NodeConfig{
		ID: *node, Listen: *listen, Peers: peers, Tracer: tracer,
		// Advertise the watermark mode in the handshake: a cluster mixing
		// --watermark on and off would gate outputs on some nodes against
		// a frontier others never advance, so a mismatched peer is refused
		// at connection time instead of silently accepted.
		Watermark: wire.WatermarkOff,
	}
	if *watermark {
		wcfg.Watermark = wire.WatermarkOn
	}
	// engRef and mgrRef break the construction cycles between the node,
	// the engine, and the membership manager: the node needs its Health
	// and Gossip configs now, the callbacks need the engine and manager,
	// and both of those need the node as their transport.
	var engRef atomic.Pointer[core.Engine]
	var mgrRef atomic.Pointer[cluster.Manager]
	var agentRef atomic.Pointer[stability.Agent]
	if *deadAfter > 0 {
		wcfg.Health = wire.HealthConfig{
			SuspectAfter: *suspectAfter,
			DeadAfter:    *deadAfter,
			OnPeerDead: func(dead int) {
				if eng := engRef.Load(); eng != nil {
					eng.DenyOwned(func(pid ids.PID) bool {
						// A transplanted process was adopted, not lost: its
						// reborn incarnation re-adjudicates what it minted.
						return wire.NodeOf(pid) == dead && !eng.Transplanted(pid)
					}, fmt.Sprintf("node %d declared dead", dead))
				}
			},
		}
		if survive {
			// Frames stranded toward a dead peer come back here instead of
			// being dropped: adjudications re-park on the routing retry
			// queue and reach the ring successor; everything else (user
			// Data toward the corpse's processes) parks until an adopter's
			// announcement makes it forwardable.
			wcfg.Health.OnDeadFrame = func(_ int, m *msg.Message) {
				if eng := engRef.Load(); eng != nil && !eng.RequeueRouted(m) {
					eng.RequeueTransplant(m)
				}
			}
		}
	}
	if clustered {
		// Gossip piggybacks on the wire connections; payloads arriving
		// before the manager exists are dropped — anti-entropy repairs.
		wcfg.Gossip = wire.GossipConfig{
			OnPayload: func(from int, payload []byte) {
				if m := mgrRef.Load(); m != nil {
					m.HandleGossip(from, payload)
				}
			},
			Reply: func(from int) []byte {
				if m := mgrRef.Load(); m != nil {
					return m.GossipReply(from)
				}
				return nil
			},
		}
		if survive {
			// Shard handoff rides the out-of-band transfer frame; a batch
			// arriving before the engine exists is dropped — the shipper
			// re-offers it on its next view change.
			wcfg.Transfer = wire.TransferConfig{
				OnPayload: func(from int, payload []byte) {
					if eng := engRef.Load(); eng != nil {
						if _, err := eng.InstallTransfer(payload); err != nil {
							fmt.Fprintf(os.Stderr, "hoped: node %d transfer from %d: %v\n", *node, from, err)
						}
					}
				},
			}
			// Adoption announcements ride the out-of-band transplant frame:
			// installing a peer's old→new map lets this node forward frames
			// still addressed to the dead incarnations. First mapping wins,
			// so replayed announcements are harmless.
			wcfg.Transplant = wire.TransplantConfig{
				OnPayload: func(from int, payload []byte) {
					eng := engRef.Load()
					if eng == nil {
						return
					}
					pairs, err := core.DecodeTransplantAnnouncement(payload)
					if err != nil {
						fmt.Fprintf(os.Stderr, "hoped: node %d transplant announcement from %d: %v\n", *node, from, err)
						return
					}
					eng.InstallTransplantMap(pairs)
				},
			}
		}
		// First-hand failure-detector verdicts feed the membership view.
		wcfg.Health.OnPeerState = func(peer int, st wire.PeerState) {
			m := mgrRef.Load()
			if m == nil {
				return
			}
			switch st {
			case wire.PeerAlive:
				m.ObserveState(peer, cluster.StateAlive)
			case wire.PeerSuspect:
				m.ObserveState(peer, cluster.StateSuspect)
			case wire.PeerDead:
				m.ObserveState(peer, cluster.StateDead)
			}
		}
	}
	// The stability watermark: a tracker feeds the engine's revocable
	// finalize hooks, and round payloads ride the out-of-band stability
	// wire frame (frames arriving before the agent exists are dropped —
	// the next round repeats them).
	var stab *stability.Tracker
	if *watermark {
		stab = stability.NewTracker(*node)
		wcfg.Stability = wire.StabilityConfig{
			OnPayload: func(from int, payload []byte) {
				if a := agentRef.Load(); a != nil {
					a.HandlePayload(from, payload)
				}
			},
		}
	}

	ecfg := core.Config{PIDBase: wire.PIDBase(*node), Tracer: tracer}
	if stab != nil {
		ecfg.Stability = stab
		if store != nil {
			// Re-adopt the pre-crash frontier so outputs the watermark had
			// already released re-emit promptly instead of waiting on a
			// fresh round.
			stab.SetFrontier(recov.FrontierView, recov.Frontier)
		}
	}
	if store != nil {
		wcfg.Durable, wcfg.Resume = store, recov.Resume
		ecfg.Persist, ecfg.Restore = store, recov.Restore
		// Liveness auto-denials from the previous life stay denied; a
		// restart must not resurrect an orphaned speculation.
		ecfg.Denied = recov.Denied
		// Hold inbound delivery until recovery has re-injected the
		// delivered-but-unconsumed backlog; otherwise a fast-redialing
		// peer's resent frames (newer sequence numbers) arrive first and
		// FIFO order inverts across the restart.
		wcfg.HoldInbound = true
	}

	n, err := wire.NewNode(wcfg)
	if err != nil {
		return err
	}
	defer n.Close()

	ecfg.Transport = n
	if survive {
		ecfg.Routing = &core.RoutingConfig{
			Self:      *node,
			NodeOf:    wire.NodeOf,
			RouterPID: wire.RouterPID,
			Owner: func(a ids.AID) (int, uint64, bool) {
				m := mgrRef.Load()
				if m == nil {
					return 0, 0, false // pre-bootstrap: park and retry
				}
				owner, ok := m.Ring().Owner(uint64(a))
				return owner, m.Epoch(), ok
			},
			Ship: func(to int, payload []byte) bool { return n.Transfer(to, payload) },
		}
	}
	if *lease > 0 {
		ecfg.Liveness = &core.LivenessConfig{
			Lease: *lease,
			Owner: func(a ids.AID) core.OwnerStatus {
				owner := wire.NodeOf(a.PID())
				if survive {
					// Ownership-routed: the adjudicator is the ring owner,
					// not the minting node.
					if m := mgrRef.Load(); m != nil {
						if o, ok := m.Ring().Owner(uint64(a)); ok {
							owner = o
						}
					}
				}
				if owner == *node {
					return core.OwnerStatus{} // locally hosted: plain lease
				}
				h := n.HealthOf(owner)
				return core.OwnerStatus{Remote: true, Dead: h.State == wire.PeerDead, LastHeard: h.LastHeard}
			},
		}
	}
	eng := core.NewEngine(ecfg)
	engRef.Store(eng)
	defer eng.Shutdown()

	// announceTransplants broadcasts freshly installed old→new pairs to
	// every peer this node can name — the cluster's live members plus the
	// static peers (external clients ride --peer and need the map too, or
	// their frames to the dead incarnations park forever). First mapping
	// wins at every receiver, so duplicate announcements are harmless.
	announceTransplants := func(pairs []core.TransplantPair) {
		if len(pairs) == 0 {
			return
		}
		payload := core.EncodeTransplantAnnouncement(pairs)
		targets := make(map[int]bool, len(peers))
		for id := range peers {
			targets[id] = true
		}
		if m := mgrRef.Load(); m != nil {
			for _, id := range m.View().Live() {
				targets[id] = true
			}
		}
		delete(targets, *node)
		for id := range targets {
			n.Transplant(id, payload)
		}
	}

	// adoptCorpse takes over this node's ring slice of a dead member, read
	// from its WAL in one fold, before anything it owned is denied.
	adoptCorpse := func(id int, ring *cluster.Ring) {
		ex, err := durable.ReadExtract(nodeDir(id), id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hoped: node %d adopt from dead node %d: %v\n", *node, id, err)
			return
		}
		// Rebirth our slice of the corpse's user processes first: an
		// adopted process re-adjudicates its own assumptions (definite
		// prefix re-fired, speculative suffix rolled back), so denial must
		// skip what the transplant saved. The announcement is printed even
		// for an empty slice — it proves the path ran.
		if ex.ProcErr != nil {
			fmt.Fprintf(os.Stderr, "hoped: node %d transplant from dead node %d: %v\n", *node, id, ex.ProcErr)
		} else {
			own := func(pid ids.PID) bool { return ring.Owns(*node, uint64(pid)) }
			pairs, aerr := eng.AdoptProcesses(id, ex.Procs, own, rpc.PrintServer())
			if aerr != nil {
				fmt.Fprintf(os.Stderr, "hoped: node %d transplant from dead node %d: %v\n", *node, id, aerr)
			}
			fmt.Printf("HOPED TRANSPLANTED node=%d from=%d procs=%d map=%s\n",
				*node, id, len(pairs), formatTransplantMap(pairs))
			if len(pairs) > 0 {
				announceTransplants(pairs)
				// The corpse's swallowed output and the inbox backlog of
				// the processes we adopted get a second life too; receivers
				// absorb duplicates exactly as they absorb rollback re-sends.
				eng.ReinjectCorpseTraffic(append(ex.Resend, ex.Unacked...), ex.Orphans)
			}
		}
		// Then the shard: the machines our ring now assigns to us become
		// ours (survivors each take only their own slice, so one corpse's
		// shard partitions without overlap), and DenyOwned's grant-epoch
		// check skips what the ring reassigned.
		if count, err := eng.InstallExports(ex.AIDExports, true); err != nil {
			fmt.Fprintf(os.Stderr, "hoped: node %d adopt from dead node %d: %v\n", *node, id, err)
		} else {
			fmt.Printf("HOPED ADOPTED node=%d from=%d count=%d\n", *node, id, count)
		}
		// The corpse also acked frames it never consumed: their senders
		// pruned them, so only the WAL copy remains. Requeue the
		// adjudications among them through our own ring — the current
		// owner deduplicates replays.
		for _, m := range ex.Unconsumed {
			eng.RequeueRouted(m)
		}
	}

	rootPID := uint64(0)
	switch *serve {
	case "printserver":
		p, err := eng.SpawnRoot(rpc.PrintServer())
		if err != nil {
			return err
		}
		rootPID = uint64(p.PID())
	case "none":
	default:
		return fmt.Errorf("unknown --serve %q (want printserver|none)", *serve)
	}

	// Recovery repairs, strictly after the roots exist so redelivered
	// messages find their handlers: re-enqueue journalled sends whose
	// frames died with the crash, then re-inject delivered-but-unconsumed
	// inbound messages in arrival order.
	if store != nil {
		if survive && len(recov.Transplants) > 0 {
			// Re-adopt our own recorded transplants: the hand-off records
			// and forced exports made each adoption durable, so a crashed
			// adopter rebirths them again (from= names ourselves, like a
			// restart shard re-adoption) and re-announces the mapping.
			reborn := make([]ids.PID, 0, len(recov.Transplants))
			for pid := range recov.Transplants {
				reborn = append(reborn, pid)
			}
			sort.Slice(reborn, func(i, j int) bool { return reborn[i] < reborn[j] })
			var pairs []core.TransplantPair
			for _, pid := range reborn {
				if _, terr := eng.Transplant(pid, rpc.PrintServer(), nil); terr != nil {
					fmt.Fprintf(os.Stderr, "hoped: node %d transplant respawn %v: %v\n", *node, pid, terr)
					continue
				}
				pairs = append(pairs, core.TransplantPair{Old: recov.Transplants[pid].OldPID, New: pid})
			}
			eng.InstallTransplantMap(pairs)
			announceTransplants(pairs)
			fmt.Printf("HOPED TRANSPLANTED node=%d from=%d procs=%d map=%s\n",
				*node, *node, len(pairs), formatTransplantMap(pairs))
		}
		if len(recov.AIDExports) > 0 {
			// Reclaim the pre-crash AID table wholesale, before any frame
			// is redelivered so the AIDs those frames address are hosted
			// again; with a ring, the first view change ships away whatever
			// the ring moved meanwhile.
			count, err := eng.InstallExports(recov.AIDExports, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hoped: node %d restart shard adoption: %v\n", *node, err)
			} else {
				fmt.Printf("HOPED ADOPTED node=%d from=%d count=%d\n", *node, *node, count)
			}
		}
		if !recovEmpty {
			for _, m := range recov.Resend {
				n.Send(m)
			}
			for _, m := range recov.Redeliver {
				n.Redeliver(m)
			}
			fmt.Printf("HOPED RECOVERED node=%d %s\n", *node, recovLine)
		}
		n.ReleaseInbound()
	}

	// Dynamic membership: the manager folds gossip and detector evidence
	// into an epoch-numbered view and keeps the ownership ring in sync.
	// Death in the view is the ownership-handoff trigger — the dead
	// member's wire state is torn down by fiat and everything it owned is
	// auto-denied, so dependents roll back instead of waiting forever.
	var mgr *cluster.Manager
	evicted := make(chan uint64, 1)
	if clustered {
		mcfg := cluster.Config{
			Self:      *node,
			Addr:      n.Addr(),
			Seeds:     join,
			Interval:  *gossipEvery,
			VNodes:    *vnodes,
			Transport: n,
			Tracer:    tracer,
			OnChange: func(v cluster.View, _ *cluster.Ring) {
				fmt.Println(cluster.FormatViewLine(*node, v))
				if survive {
					// Re-evaluate the hosted shard against the new ring and
					// ship what moved to its new owners.
					if e := engRef.Load(); e != nil {
						e.OwnershipChanged()
					}
				}
			},
			OnDeaths: func(dead []int, v cluster.View, ring *cluster.Ring) {
				for _, id := range dead {
					n.DeclarePeerDead(id)
					e := engRef.Load()
					if e == nil {
						continue
					}
					// A dead peer with no WAL under --data-root was never a
					// member with local state (e.g. an external client that
					// gossip declared dead): nothing to take over.
					if _, serr := os.Stat(nodeDir(id)); survive && serr == nil {
						adoptCorpse(id, ring)
					}
					e.DenyOwned(func(pid ids.PID) bool {
						return wire.NodeOf(pid) == id && !e.Transplanted(pid)
					}, fmt.Sprintf("node %d dead in view e%d", id, v.Epoch))
				}
			},
			OnEvicted: func(v cluster.View) {
				// The cluster declared us dead. Serving on would mean a
				// zombie owner of a shard the survivors re-owned; announce
				// and shut down instead.
				fmt.Printf("HOPED EVICTED node=%d epoch=%d\n", *node, v.Epoch)
				select {
				case evicted <- v.Epoch:
				default:
				}
			},
		}
		if store != nil {
			mcfg.EpochFloor = recov.ViewEpoch
			mcfg.Persist = store.ViewChanged
		}
		mgr, err = cluster.New(mcfg)
		if err != nil {
			return err
		}
		defer mgr.Stop()
		mgrRef.Store(mgr)
		// Announce the bootstrap view before READY so watchers always see
		// at least one VIEW line (OnChange only fires on changes).
		fmt.Println(cluster.FormatViewLine(*node, mgr.View()))
		mgr.Start()
	}

	// Stability rounds: the agent reports into sweeps, and — while this
	// node is the lowest-numbered live member — initiates them. Members
	// come from the cluster view when clustered, else the static peer
	// set at epoch 0.
	if stab != nil {
		static := []int{*node}
		for id := range peers {
			static = append(static, id)
		}
		sort.Ints(static)
		agent := stability.NewAgent(stability.Config{
			Node:    *node,
			Tracker: stab,
			Members: func() (uint64, []int) {
				if m := mgrRef.Load(); m != nil {
					v := m.View()
					return v.Epoch, v.Live()
				}
				return 0, static
			},
			Send:     n.Stability,
			Quiet:    eng.Quiet,
			Seqs:     n.MsgSeqs,
			Interval: *watermarkEvery,
			OnAdvance: func(view uint64, frontier map[int]uint32) {
				if store != nil {
					store.WatermarkAdvanced(view, frontier)
				}
				eng.FlushStable()
				fmt.Printf("HOPED STABLE node=%d epoch=%d frontier=%s\n",
					*node, view, stability.FormatFrontier(frontier))
			},
			Tracer: tracer,
		})
		agentRef.Store(agent)
		agent.Start()
		defer agent.Stop()
	}

	// The READY line is the contract with whoever spawned us (see
	// harness.AwaitBoot): resolved address and service PID.
	fmt.Printf("HOPED READY node=%d addr=%s pid=%d\n", *node, n.Addr(), rootPID)

	if *statsEvery > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					var b strings.Builder
					for _, ph := range n.PeerHealth() {
						fmt.Fprintf(&b, " [%s]", ph)
					}
					if mgr != nil {
						fmt.Fprintf(&b, " cluster[%v]", mgr.Stats())
					}
					if a := agentRef.Load(); a != nil {
						fmt.Fprintf(&b, " stability[%v]", a.Stats())
					}
					fmt.Fprintf(os.Stderr, "hoped: node %d stats: %v denied=%d%s\n",
						*node, n.WireStats(), eng.AutoDenied(), b.String())
				}
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "hoped: node %d caught %v, draining (again to force exit)\n", *node, got)
	case epoch := <-evicted:
		fmt.Fprintf(os.Stderr, "hoped: node %d evicted from the cluster at epoch %d, draining (SIGINT to force exit)\n", *node, epoch)
	}
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "hoped: node %d caught %v during shutdown, forcing exit\n", *node, s)
		os.Exit(1)
	}()

	// Bounded-drain shutdown: give in-flight frames a chance to be
	// acked, but never hang on an unreachable peer — after the deadline
	// whatever is still queued is dropped by Close (and, on a durable
	// node, survives in the WAL for the next boot to resend).
	if !n.DrainFor(*drainTimeout) {
		fmt.Fprintf(os.Stderr, "hoped: node %d shutdown drain timed out after %v with %d frames unacked (dropping)\n",
			*node, *drainTimeout, n.Inflight())
	}
	fmt.Fprintf(os.Stderr, "hoped: node %d shutting down; net %v; wire %v\n",
		*node, n.Stats(), n.WireStats())
	if survive {
		fmt.Fprintf(os.Stderr, "hoped: node %d routing %+v\n", *node, eng.RoutingStats())
	}
	if mgr != nil {
		fmt.Fprintf(os.Stderr, "hoped: node %d cluster %v\n", *node, mgr.Stats())
	}
	if store != nil {
		if errs := store.EncodeErrors(); errs > 0 {
			fmt.Fprintf(os.Stderr, "hoped: node %d had %d WAL encode failures (affected processes restart fresh)\n",
				*node, errs)
		}
	}
	if rec != nil {
		events := rec.Events()
		fmt.Fprintf(os.Stderr, "hoped: last %d of %d transport events:\n", len(events), rec.Total())
		for _, e := range events {
			fmt.Fprintln(os.Stderr, e.String())
		}
	}
	return nil
}
