package harness

// The fault storm: N hoped servers, each behind two fault-injecting
// proxies, and a client driving one workload per server while a
// seed-deterministic plan severs, partitions and corrupts the links and
// kills one node. When the plan ends the storm heals every partition,
// severs every connection once more (a corrupted length prefix can stall
// a reader mid-frame; the sever bounds it), waits for quiescence and,
// besides the shared invariant pass, asserts:
//
//   - each surviving server's committed line counter equals a sequential
//     replay of its workload — the committed prefix is byte-stable
//     through crashes and partitions, with nothing lost, duplicated, or
//     reordered;
//   - a killed node recovered from its WAL on the same address with the
//     same root PID (no resurrection of rolled-back state: recovery
//     replays the log, it does not reinvent it).
//
// With Config.PermKill the storm instead kills one node permanently: no
// restart ever follows, the client's wire failure detector must declare
// the corpse dead, and the engine's liveness layer must auto-deny the
// orphaned assumptions so dependents roll back instead of waiting
// forever. The liveness invariant then replaces completeness for the
// doomed workload. GenPlan is a pure function of the seed, so a failing
// run's printed seed and plan are a complete reproduction recipe.

import (
	"fmt"
	"time"

	"github.com/hope-dist/hope/internal/faultwire"
	"github.com/hope-dist/hope/internal/node"
	"github.com/hope-dist/hope/internal/oracle"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/wire"
)

// Config parameterizes one fault storm.
type Config struct {
	Setup
	Span     time.Duration // storm duration; quiescence is awaited after
	Kill     bool          // SIGKILL+restart one node mid-storm (servers run with a WAL)
	PermKill bool          // SIGKILL one node permanently — no restart; enables the liveness layer (overrides Kill)
}

// proxyJitter is each fault proxy's per-chunk latency jitter: enough to
// shift frame boundaries and reorder timing across links.
const proxyJitter = 200 * time.Microsecond

func (c *Config) norm() error {
	if err := c.Setup.norm(1); err != nil {
		return err
	}
	if c.Span <= 0 {
		c.Span = 2 * time.Second
	}
	if c.PermKill {
		// A permanent kill supersedes kill+restart: the plan places the
		// SIGKILL at the same instant but nothing ever follows.
		c.Kill = false
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

// Run executes one storm. The returned Result is valid even on error —
// print Result.Plan alongside the seed to reproduce the failure.
func Run(cfg Config) (Result, error) {
	var res Result
	if err := cfg.norm(); err != nil {
		return res, err
	}
	if cfg.PermKill {
		res.Plan = faultwire.GenPlanPerm(cfg.Seed, cfg.Nodes, cfg.Span)
	} else {
		res.Plan = faultwire.GenPlan(cfg.Seed, cfg.Nodes, cfg.Span, cfg.Kill)
	}
	suspect, dead, lease := LivenessTimings(cfg.Span)
	start := time.Now()
	logf := func(format string, args ...any) { narrate(cfg.Log, start, format, args...) }

	// A killed server restarts from its WAL; a permanently killed one
	// leaves a durable corpse, so its on-disk state is a realistic one.
	var root string
	if cfg.Kill || cfg.PermKill {
		dir, cleanup, err := dataRoot()
		if err != nil {
			return res, err
		}
		defer cleanup()
		root = dir
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
	defer func() { stopAll(servers) }()
	for id := 1; id <= cfg.Nodes; id++ {
		s := newServer(id, root)
		// The outbound proxy (server → client) must exist before the
		// child: its address is the child's --peer 0.
		s.out, err = faultwire.NewProxy(faultwire.ProxyConfig{
			Listen: "127.0.0.1:0", Target: client.Addr(),
			Seed: cfg.Seed ^ int64(id)<<1, Jitter: proxyJitter, Tracer: cfg.Tracer,
		})
		if err != nil {
			return res, err
		}
		defer s.out.Close()
		args := s.args("127.0.0.1:0", s.out.Addr())
		if cfg.PermKill {
			// Servers run the same detector/lease timings as the client;
			// their only peer is node 0, which never dies, so this mostly
			// exercises the flag plumbing end to end.
			args = append(args, livenessArgs(suspect, dead, lease)...)
		}
		boot, err := s.start(cfg.HopedBin, args)
		if err != nil {
			return res, err
		}
		s.addr, s.pid = boot.Addr, boot.PID
		servers = append(servers, s)

		// The inbound proxy (client → server) targets the child's real
		// address, which survives restart — the victim relistens on it.
		s.in, err = faultwire.NewProxy(faultwire.ProxyConfig{
			Listen: "127.0.0.1:0", Target: s.addr,
			Seed: cfg.Seed ^ int64(id)<<1 ^ 1, Jitter: proxyJitter, Tracer: cfg.Tracer,
		})
		if err != nil {
			return res, err
		}
		defer s.in.Close()
		client.SetPeer(id, s.in.Addr())
		logf("node %d up: addr=%s pid=%v proxies in=%s out=%s", id, s.addr, s.pid, s.in.Addr(), s.out.Addr())
	}
	workloads, err := spawnWorkloads(eng, servers, &cfg.Setup)
	if err != nil {
		return res, err
	}

	// Execute the fault plan against the proxies and processes.
	for _, e := range res.Plan.Events {
		if wait := e.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		s := servers[e.Node-1]
		logf("%s", e)
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
		case faultwire.OpKill, faultwire.OpKillPerm:
			if err := s.kill(); err != nil {
				return res, fmt.Errorf("SIGKILL node %d: %w", e.Node, err)
			}
			if e.Op == faultwire.OpKillPerm {
				res.PermKilled = e.Node
			}
		case faultwire.OpRestart:
			boot, err := s.start(cfg.HopedBin, s.args(s.addr, s.out.Addr()))
			if err != nil {
				return res, fmt.Errorf("restart node %d: %w", e.Node, err)
			}
			if boot.Recovered == "" {
				return res, fmt.Errorf("restarted node %d reported no recovery", e.Node)
			}
			if boot.PID != s.pid {
				return res, fmt.Errorf("node %d root PID changed across restart: %v -> %v", e.Node, s.pid, boot.PID)
			}
			res.Recovered = boot.Recovered
			logf("node %d recovered: %s", s.id, boot.Recovered)
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
	logf("storm over, awaiting quiescence")
	mustComplete := func(w *workload) bool { return w.srv.id != res.PermKilled }
	if res.Rollbacks, err = awaitQuiescence(cn, workloads, mustComplete); err != nil {
		return res, err
	}

	// The committed layout per surviving server, then the shared pass.
	want := oracle.ExpectedFinalLine(cfg.PageSize, cfg.Reports) + 1
	for _, s := range servers {
		if s.id == res.PermKilled {
			continue // no process left to probe
		}
		line, err := rpc.Probe(eng, s.pid, rpc.MethodPrint, 30*time.Second)
		if err != nil {
			return res, fmt.Errorf("probe node %d: %w", s.id, err)
		}
		if line != want {
			return res, fmt.Errorf("node %d final line = %d, want %d: prints lost, duplicated, or reordered",
				s.id, line, want)
		}
	}
	if err := checkInvariants(eng, tap, workloads, cfg.Reports, res.PermKilled, mustComplete); err != nil {
		return res, err
	}
	if cfg.Kill && res.Recovered == "" {
		return res, fmt.Errorf("plan killed node %d but no recovery was recorded", res.Plan.Victim())
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
