package main

// Node composition. This file is the only place that knows how a HOPE
// node is put together; it mirrors cmd/hoped's run() — the same
// constructors in the same order — minus flags, membership and routing.
// When ROADMAP item 3's internal/node exists, this file is replaced by a
// call into it.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/durable"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/stability"
	"github.com/hope-dist/hope/internal/trace"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

func init() {
	// Every payload type that crosses the wire must be registered on both
	// sides; the benchmark speaks hoped's rpc vocabulary.
	wire.RegisterPayload(rpc.Request{})
	wire.RegisterPayload(rpc.Response{})
}

const (
	clientNode = 0 // workers are spawned here
	serverNode = 1 // the lanes' print servers live here

	drainTimeout    = 2 * time.Second
	shutdownTimeout = 10 * time.Second
)

// stackConfig is the per-workload node configuration; the zero value is
// a volatile, watermark-off node.
type stackConfig struct {
	durable         bool
	fsync           wal.Policy
	checkpointEvery int
	watermark       bool
	watermarkEvery  time.Duration
}

// member is one composed node: wire transport, engine, and the optional
// durable store and stability agent.
type member struct {
	id    int
	node  *wire.Node
	eng   *core.Engine
	store *durable.Store
	agent *stability.Agent
}

// stack is the system under test: two members in one process, joined
// over loopback TCP.
type stack struct {
	members [2]*member
}

func (s *stack) client() *member { return s.members[clientNode] }
func (s *stack) server() *member { return s.members[serverNode] }

// buildStack composes both members. dir holds the WALs of a durable
// stack. sm, when non-nil, installs the traced run's decorators on every
// seam; clientTracer (may be nil) is the client engine's tracer, which
// the lanes use for commit detection on every run.
func buildStack(cfg stackConfig, dir string, sm *seams, clientTracer trace.Tracer) (*stack, error) {
	s := &stack{}
	for id := range s.members {
		var tracer trace.Tracer
		if id == clientNode {
			tracer = clientTracer
		}
		if sm != nil {
			tracer = sm.engineTracer(tracer)
		}
		m, err := buildMember(id, cfg, dir, sm, tracer)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
		s.members[id] = m
	}
	s.members[0].node.SetPeer(1, s.members[1].node.Addr())
	s.members[1].node.SetPeer(0, s.members[0].node.Addr())
	for _, m := range s.members {
		if m.store != nil {
			m.node.ReleaseInbound()
		}
		if m.agent != nil {
			m.agent.Start()
		}
	}
	return s, nil
}

func buildMember(id int, cfg stackConfig, dir string, sm *seams, tracer trace.Tracer) (*member, error) {
	m := &member{id: id}
	wcfg := wire.NodeConfig{ID: id, Listen: "127.0.0.1:0", Watermark: wire.WatermarkOff}
	ecfg := core.Config{PIDBase: wire.PIDBase(id), Tracer: tracer}

	if cfg.durable {
		store, recov, err := durable.OpenOptions(durable.Options{
			Dir: filepath.Join(dir, fmt.Sprintf("node%d", id)), NodeID: id,
			Policy: cfg.fsync, CheckpointEvery: cfg.checkpointEvery,
		})
		if err != nil {
			return nil, err
		}
		m.store = store
		wcfg.Durable, wcfg.Resume = wire.DurableHooks(store), recov.Resume
		ecfg.Persist, ecfg.Restore, ecfg.Denied = core.Persister(store), recov.Restore, recov.Denied
		if sm != nil {
			wcfg.Durable, ecfg.Persist = sm.wireHooks(store), sm.persister(store)
		}
		// As hoped: no inbound delivery until the node's roots exist.
		wcfg.HoldInbound = true
	}

	var tracker *stability.Tracker
	var agentRef atomic.Pointer[stability.Agent]
	if cfg.watermark {
		wcfg.Watermark = wire.WatermarkOn
		tracker = stability.NewTracker(id)
		wcfg.Stability = wire.StabilityConfig{OnPayload: func(from int, payload []byte) {
			if a := agentRef.Load(); a != nil {
				a.HandlePayload(from, payload)
			}
		}}
		ecfg.Stability = tracker
		if sm != nil {
			ecfg.Stability = sm.stability(tracker)
		}
	}

	node, err := wire.NewNode(wcfg)
	if err != nil {
		if m.store != nil {
			m.store.Close()
		}
		return nil, err
	}
	m.node = node
	ecfg.Transport = node
	if sm != nil {
		ecfg.Transport = sm.transport(node)
	}
	m.eng = core.NewEngine(ecfg)

	if tracker != nil {
		m.agent = stability.NewAgent(stability.Config{
			Node:     id,
			Tracker:  tracker,
			Members:  func() (uint64, []int) { return 0, []int{clientNode, serverNode} },
			Send:     node.Stability,
			Quiet:    m.eng.Quiet,
			Seqs:     node.MsgSeqs,
			Interval: cfg.watermarkEvery,
			OnAdvance: func(view uint64, frontier map[int]uint32) {
				if m.store != nil {
					m.store.WatermarkAdvanced(view, frontier)
				}
				m.eng.FlushStable()
				if sm != nil {
					sm.advances.Add(1)
				}
			},
		})
		agentRef.Store(m.agent)
	}
	return m, nil
}

// quiescent reports distributed quiescence: every sequenced frame either
// node has sent has been delivered at the other, both engines are parked,
// and no frame was sent while that was being established. It is the
// drain condition the stability layer's cut uses (wire.Node.MsgSeqs),
// not Inflight() == 0: Inflight counts frames not yet *acknowledged*,
// and an idle link acknowledges on a 20 ms timer, so waiting on it
// measures that timer and nothing else.
func (s *stack) quiescent() bool {
	a, b := s.members[0], s.members[1]
	drained := func() (sentAB, sentBA uint64, ok bool) {
		sentA, deliveredA := a.node.MsgSeqs()
		sentB, deliveredB := b.node.MsgSeqs()
		sentAB, sentBA = sentA[b.id], sentB[a.id]
		return sentAB, sentBA, deliveredB[a.id] >= sentAB && deliveredA[b.id] >= sentBA
	}
	ab, ba, ok := drained()
	if !ok || !a.eng.Quiet() || !b.eng.Quiet() {
		return false
	}
	ab2, ba2, ok := drained()
	return ok && ab2 == ab && ba2 == ba
}

// violations sums protocol violations over both engines.
func (s *stack) violations() int64 {
	var v int64
	for _, m := range s.members {
		v += m.eng.Violations()
	}
	return v
}

// wireCounts is the sum over both nodes of the wire and delivery
// counters the benchmark reads, as floats ready for per-job division.
type wireCounts struct {
	framesOut, bytesOut, flushes, acksSent, resends, queueFull float64
	dead                                                       float64 // delivered to an unregistered PID
	codecErrors                                                float64 // encode + decode + CRC
}

func (s *stack) wireCounts() wireCounts {
	var t wireCounts
	for _, m := range s.members {
		w := m.node.WireStats()
		t.framesOut += float64(w.FramesOut)
		t.bytesOut += float64(w.BytesOut)
		t.flushes += float64(w.Flushes)
		t.acksSent += float64(w.AcksSent)
		t.resends += float64(w.Resends)
		t.queueFull += float64(w.QueueFull)
		t.codecErrors += float64(w.EncodeErrors + w.DecodeErrors + w.CRCErrors)
		t.dead += float64(m.node.Stats().Dead)
	}
	return t
}

// scaled returns a + k·b field by field.
func (a wireCounts) scaled(k float64, b wireCounts) wireCounts {
	return wireCounts{
		framesOut: a.framesOut + k*b.framesOut, bytesOut: a.bytesOut + k*b.bytesOut,
		flushes: a.flushes + k*b.flushes, acksSent: a.acksSent + k*b.acksSent,
		resends: a.resends + k*b.resends, queueFull: a.queueFull + k*b.queueFull,
		dead: a.dead + k*b.dead, codecErrors: a.codecErrors + k*b.codecErrors,
	}
}

func (a wireCounts) minus(b wireCounts) wireCounts { return a.scaled(-1, b) }
func (a wireCounts) plus(b wireCounts) wireCounts  { return a.scaled(1, b) }

// walCounts is the sum of the WAL counters over both stores (zero when
// volatile).
type walCounts struct {
	appends, bytes, syncs float64
}

func (s *stack) walCounts() walCounts {
	var t walCounts
	for _, m := range s.members {
		if m.store == nil {
			continue
		}
		w := m.store.Log().Metrics()
		t.appends += float64(w.Appends)
		t.bytes += float64(w.AppendBytes)
		t.syncs += float64(w.Syncs)
	}
	return t
}

func (a walCounts) minus(b walCounts) walCounts {
	return walCounts{appends: a.appends - b.appends, bytes: a.bytes - b.bytes, syncs: a.syncs - b.syncs}
}

func (a walCounts) plus(b walCounts) walCounts {
	return walCounts{appends: a.appends + b.appends, bytes: a.bytes + b.bytes, syncs: a.syncs + b.syncs}
}

// procs counts user processes tracked by both engines.
func (s *stack) procs() int {
	n := 0
	for _, m := range s.members {
		n += len(m.eng.Processes())
	}
	return n
}

// close shuts both members down in hoped's order — bounded drain, stop
// the agent, engine, transport, WAL — and reports an engine that did not
// shut down or a WAL that did not close.
func (s *stack) close() error {
	var errs []error
	for _, m := range s.members {
		if m == nil {
			continue
		}
		m.node.DrainFor(drainTimeout)
	}
	for _, m := range s.members {
		if m == nil {
			continue
		}
		if m.agent != nil {
			m.agent.Stop()
		}
		done := make(chan struct{})
		go func() {
			m.eng.Shutdown()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(shutdownTimeout):
			errs = append(errs, fmt.Errorf("node %d: engine did not shut down within %v", m.id, shutdownTimeout))
			continue
		}
		m.node.Close()
		if m.store != nil {
			if err := m.store.Close(); err != nil {
				errs = append(errs, fmt.Errorf("node %d: WAL close: %w", m.id, err))
			}
		}
	}
	return errors.Join(errs...)
}
