// Command hoped runs one HOPE node as a standalone OS process. It is the
// flag front end of internal/node, whose package comment describes what
// each mode does; this comment is hoped's contract: its flags and the
// lines it prints to stdout.
//
// Usage:
//
//	hoped --node 1 --listen 127.0.0.1:7101 --peer 0=127.0.0.1:7100
//
// hoped -h lists the flags. Each is one node.Config field, except
// --drain-timeout (the bounded wait for unacked frames on shutdown),
// --stats-every (wire, per-peer health, cluster and stability round
// counters to stderr periodically) and --trace-tail N (the last N
// transport trace events, dumped on shutdown). A combination the node
// would ignore or misread is refused before any socket is bound: for
// example --suspect-after without --dead-after or above it, --fsync or
// --checkpoint-every without --data-dir, and --data-root outside cluster
// mode, without --data-dir <data-root>/node<N>, or without --serve
// printserver. Every node must agree on --watermark and --data-root.
// The cadences are not flags, so members cannot disagree on them: a
// cluster member gossips every 150ms, a --watermark node falls back to
// a stability round every 250ms, and the ownership ring has
// cluster.DefaultVNodes points per member.
//
// Stdout carries one machine-parseable line per event:
//
//	HOPED RECOVERED node=1 records=412 procs=1 redeliver=3 resend=0 unacked=2 denied=0 torn=0 in 1.2ms from=389 tail=23 ckpt
//	HOPED VIEW node=2 epoch=5 live=0,1,2 dead=3
//	HOPED READY node=1 addr=127.0.0.1:7101 pid=281474976710657
//	HOPED STABLE node=1 epoch=5 frontier=0:41,1:17
//	HOPED ADOPTED node=2 from=3 count=5
//	HOPED TRANSPLANTED node=2 from=3 procs=1 map=844424930131970:562949953421314
//	HOPED EVICTED node=2 epoch=7
//
// READY ends the boot: addr is the resolved listen address (useful with
// --listen :0) and pid the root service's PID, which remote workers
// address directly (under the wire transport a PID is its routing
// address); hoped then serves until SIGINT/SIGTERM. Before READY, a
// durable node that recovered state prints RECOVERED (from= is the
// checkpoint LSN, tail= the records replayed after it) and a cluster
// member its bootstrap VIEW. VIEW then follows every view change, and
// EVICTED means the cluster declared this node dead: it shuts down.
// STABLE is a --watermark frontier advance. ADOPTED counts AID machines
// taken over from a WAL: a dead member's under --data-root, or the
// node's own on restart (from= names itself). TRANSPLANTED lists, as
// old:new PIDs ("-" when none), the user processes a --data-root node
// rebirths off a dead member or, restarting, its own recorded
// transplants.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hope-dist/hope/internal/node"
	"github.com/hope-dist/hope/internal/trace"
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

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hoped:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg := node.Config{Peers: peerMap{}, Join: peerMap{}, Out: os.Stdout, Log: os.Stderr}
	fs := flag.NewFlagSet("hoped", flag.ContinueOnError)
	fs.IntVar(&cfg.ID, "node", 1, "this node's ID (upper 16 bits of every local PID)")
	fs.StringVar(&cfg.Listen, "listen", "127.0.0.1:0", "TCP listen address")
	fs.StringVar(&cfg.Serve, "serve", "printserver", "root service to host (printserver|none)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "max wait for unacked frames on shutdown before dropping them")
	traceTail := fs.Int("trace-tail", 0, "retain the last N transport trace events and dump them on shutdown (0 = off)")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "WAL directory; enables crash recovery (empty = volatile node)")
	fsync := fs.String("fsync", "interval", "WAL sync policy with --data-dir: always|interval|none")
	checkpointEvery := fs.Int("checkpoint-every", 4096, "write a durable checkpoint and prune the WAL behind it every N records, bounding restart replay to checkpoint+tail (0 = full-history replay)")
	fs.DurationVar(&cfg.SuspectAfter, "suspect-after", 0, "mark a silent peer Suspect (and probe it) after this silence (0 = dead-after/4)")
	fs.DurationVar(&cfg.DeadAfter, "dead-after", 0, "declare a silent peer Dead after this silence: drop its queue, stop dialing, auto-deny what it owned (0 = failure detector off)")
	fs.DurationVar(&cfg.Lease, "lease", 0, "auto-deny any assumption still speculative after this long (0 = speculation leases off)")
	statsEvery := fs.Duration("stats-every", 0, "print wire counters, per-peer health and stability round counters to stderr at this interval (0 = off)")
	watermark := fs.Bool("watermark", false, "gate client-visible outputs on the cluster-wide stability watermark (must match on every node; off = finalize externalizes immediately)")
	fs.BoolVar(&cfg.SeedNode, "seed-node", false, "bootstrap a fresh cluster as its seed (enables dynamic membership)")
	fs.StringVar(&cfg.DataRoot, "data-root", "", "parent directory holding every member's WAL as node<N> subdirectories; turns on state survival: ownership routing, adoption of a dead owner's AID shard, transplant of a dead member's processes (needs cluster mode, --data-dir <data-root>/node<N> and --serve printserver; must match cluster-wide)")
	fs.Var(peerMap(cfg.Peers), "peer", "peer address as N=host:port (repeatable)")
	fs.Var(peerMap(cfg.Join), "join", "cluster seed contact as N=host:port (repeatable; enables dynamic membership)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.Watermark = wire.WatermarkOff
	if *watermark {
		cfg.Watermark = wire.WatermarkOn
	}
	// The WAL knobs reach the node only when given, so it can reject
	// them on a volatile node.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fsync":
			cfg.Fsync = *fsync
		case "checkpoint-every":
			cfg.CheckpointEvery = *checkpointEvery
			if *checkpointEvery <= 0 {
				cfg.CheckpointEvery = -1
			}
		}
	})
	// A capped recorder keeps the tail of the transport's event stream
	// without growing forever — a hoped process may run for weeks.
	var rec *trace.Recorder
	if *traceTail > 0 {
		rec = trace.NewRecorderCap(*traceTail)
		cfg.Tracer = rec
	}

	n, err := node.Start(cfg)
	if err != nil {
		return err
	}

	var stats <-chan time.Time // nil (never ready) without --stats-every
	if *statsEvery > 0 {
		t := time.NewTicker(*statsEvery)
		defer t.Stop()
		stats = t.C
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for serving := true; serving; {
		select {
		case <-stats:
			var b strings.Builder
			for _, ph := range n.Wire().PeerHealth() {
				fmt.Fprintf(&b, " [%s]", ph)
			}
			if m := n.Cluster(); m != nil {
				fmt.Fprintf(&b, " cluster[%v]", m.Stats())
			}
			if a := n.Agent(); a != nil {
				fmt.Fprintf(&b, " stability[%v]", a.Stats())
			}
			fmt.Fprintf(os.Stderr, "hoped: node %d stats: %v denied=%d%s\n",
				cfg.ID, n.Wire().WireStats(), n.Engine().AutoDenied(), b.String())
		case got := <-sig:
			fmt.Fprintf(os.Stderr, "hoped: node %d caught %v, draining (again to force exit)\n", cfg.ID, got)
			serving = false
		case epoch := <-n.Evicted():
			fmt.Fprintf(os.Stderr, "hoped: node %d evicted from the cluster at epoch %d, draining (SIGINT to force exit)\n", cfg.ID, epoch)
			serving = false
		}
	}
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "hoped: node %d caught %v during shutdown, forcing exit\n", cfg.ID, s)
		os.Exit(1)
	}()

	n.Close(*drainTimeout)
	if rec != nil {
		events := rec.Events()
		fmt.Fprintf(os.Stderr, "hoped: last %d of %d transport events:\n", len(events), rec.Total())
		for _, e := range events {
			fmt.Fprintln(os.Stderr, e.String())
		}
	}
	return nil
}
