package core_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/durable"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/netsim"
	"github.com/hope-dist/hope/internal/transport"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

// sharedNet suppresses Close: engine Shutdown closes its transport, and
// the simulated net here is shared by three engines that die at
// different times — the first death must not sever the survivors.
type sharedNet struct {
	transport.Transport
}

func (t *sharedNet) Close() {}

// corpseNet stands in for the wire layer's dead-peer hand-back: once the
// corpse is declared dead, frames addressed into its PID namespace are
// handed to Requeue (parked until an adopter's announcement,
// forwarded after) instead of being sent. The engine's addressing step
// runs before this wrapper, so frames for a mapped corpse PID arrive
// here as copies addressed to the adopter's namespace and pass through. Close is a no-op: the underlying net is shared.
type corpseNet struct {
	transport.Transport
	eng        atomic.Pointer[core.Engine]
	corpse     int
	corpseDead atomic.Bool
}

func (t *corpseNet) Send(m *msg.Message) {
	if t.corpseDead.Load() && routeNode(m.To) == t.corpse {
		if e := t.eng.Load(); e != nil {
			e.Requeue(m)
			return
		}
	}
	t.Transport.Send(m)
}

func (t *corpseNet) Close() {}

// TestTransplantAdoptReplayContinuation is the end-to-end transplant
// path in one process: a durable server on node 1 accumulates state from
// a client on node 3, node 1 dies, node 2 adopts the server from node
// 1's WAL by deterministic replay, and the client's next request —
// addressed to the dead incarnation, parked by the wire hand-back, and
// flushed by the adopter's announcement — is answered with the replayed
// state preserved. Along the way it pins the first-mapping-wins fence,
// the announcement codec, and the durability of the hand-off on the
// adopter's own WAL.
func TestTransplantAdoptReplayContinuation(t *testing.T) {
	net := netsim.New(netsim.Constant(100 * time.Microsecond))
	defer net.Close()

	dirA, dirB := t.TempDir(), t.TempDir()
	storeA, recA, err := durable.Open(dirA, 1, wal.SyncAlways, nil)
	if err != nil {
		t.Fatalf("open corpse store: %v", err)
	}
	if !recA.Empty() {
		t.Fatalf("fresh corpse dir not empty: %s", recA)
	}
	storeB, _, err := durable.Open(dirB, 2, wal.SyncAlways, nil)
	if err != nil {
		t.Fatalf("open adopter store: %v", err)
	}

	engA := core.NewEngine(core.Config{PIDBase: 1 << routePIDBits, Transport: &sharedNet{Transport: net}, Persist: storeA})
	engB := core.NewEngine(core.Config{PIDBase: 2 << routePIDBits, Transport: &sharedNet{Transport: net}, Persist: storeB})
	defer engB.Shutdown()
	cnet := &corpseNet{Transport: net, corpse: 1}
	engC := core.NewEngine(core.Config{PIDBase: 3 << routePIDBits, Transport: cnet})
	defer engC.Shutdown()
	cnet.eng.Store(engC)

	// A stateful accumulator: the reply value proves whether the reborn
	// incarnation recomputed from zero or replayed the journalled state.
	serverBody := func(ctx *core.Ctx) error {
		sum := 0
		for {
			v, from, err := ctx.Recv()
			if err != nil {
				return err
			}
			if n, ok := v.(int); ok {
				sum += n
				ctx.Send(from, sum)
			}
		}
	}
	srv, err := engA.SpawnRoot(serverBody)
	if err != nil {
		t.Fatal(err)
	}
	serverPID := srv.PID()

	var mu sync.Mutex
	var replies []int
	reply := func(i int) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if i >= len(replies) {
			return 0, false
		}
		return replies[i], true
	}
	step := make(chan struct{})
	if _, err := engC.SpawnRoot(func(ctx *core.Ctx) error {
		ctx.Send(serverPID, 5)
		v, _, err := ctx.Recv()
		if err != nil {
			return err
		}
		mu.Lock()
		replies = append(replies, v.(int))
		mu.Unlock()
		<-step                 // the transplant happens here
		ctx.Send(serverPID, 7) // still addressed to the dead incarnation
		v, _, err = ctx.Recv()
		if err != nil {
			return err
		}
		mu.Lock()
		replies = append(replies, v.(int))
		mu.Unlock()
		_, _, err = ctx.Recv()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	routeWaitFor(t, "the first reply", func() bool {
		v, ok := reply(0)
		return ok && v == 5
	})

	// Node 1 dies. A clean shutdown of a parked body writes no terminate
	// record, so the WAL is exactly what a kill-after-quiescence leaves;
	// closing the store just makes the tail readable without fsync games.
	engA.Shutdown()
	if err := storeA.Close(); err != nil {
		t.Fatalf("close corpse store: %v", err)
	}
	cnet.corpseDead.Store(true)

	// The client's next request goes nowhere: parked on the sender.
	close(step)
	routeWaitFor(t, "the request to park against the dead node", func() bool {
		return engC.Parked() == 1
	})

	// Node 2 adopts the corpse's processes from its WAL.
	ex, err := durable.ReadExtract(dirA, 1)
	if err != nil {
		t.Fatalf("ReadExtract: %v", err)
	}
	if ex.ProcErr != nil {
		t.Fatalf("ReadExtract: %v", ex.ProcErr)
	}
	if ex.Procs[serverPID] == nil {
		t.Fatalf("corpse extraction lost the server: %v", ex.Procs)
	}
	pairs, err := engB.AdoptProcesses(1, ex.Procs, nil, serverBody)
	if err != nil {
		t.Fatalf("AdoptProcesses: %v", err)
	}
	if len(pairs) != 1 || pairs[0].Old != serverPID {
		t.Fatalf("adopted pairs = %v, want exactly the server %v", pairs, serverPID)
	}
	if routeNode(pairs[0].New) != 2 {
		t.Fatalf("reborn PID %v is not in the adopter's namespace", pairs[0].New)
	}
	if _, ok := engB.Adopter(serverPID); !ok {
		t.Error("adopter does not report the old incarnation transplanted")
	}

	// The at-most-one-incarnation fence: re-running the adoption (a
	// replayed announcement, a second view agreement) must spawn nothing.
	again, err := engB.AdoptProcesses(1, ex.Procs, nil, serverBody)
	if err != nil {
		t.Fatalf("second AdoptProcesses: %v", err)
	}
	if len(again) != 0 {
		t.Fatalf("second adoption spawned %v — the fence is broken", again)
	}

	// The announcement reaches the client through the wire codec; the
	// install flushes the parked request toward the reborn incarnation.
	decoded, err := core.DecodeTransplantAnnouncement(core.EncodeTransplantAnnouncement(pairs))
	if err != nil {
		t.Fatalf("announcement codec: %v", err)
	}
	if !reflect.DeepEqual(decoded, pairs) {
		t.Fatalf("announcement round trip = %v, want %v", decoded, pairs)
	}
	if n := engC.InstallTransplantMap(decoded); n != 1 {
		t.Fatalf("InstallTransplantMap installed %d, want 1", n)
	}
	if n := engC.InstallTransplantMap(decoded); n != 0 {
		t.Fatalf("duplicate announcement installed %d pairs, want 0 (first mapping wins)", n)
	}

	// The continuation: 5 survived the death by replay, so 5+7=12. A
	// recomputed-from-zero rebirth would answer 7.
	routeWaitFor(t, "the continuation reply from the reborn server", func() bool {
		v, ok := reply(1)
		return ok && v == 12
	})
	if v, _ := reply(1); v != 12 {
		t.Fatalf("continuation reply = %d, want 12 (replayed state lost)", v)
	}
	if n := engC.Parked(); n != 0 {
		t.Errorf("%d frames still parked after the flush", n)
	}
	if reborn, ok := engC.Adopter(serverPID); !ok || reborn != pairs[0].New {
		t.Errorf("client maps %v to %v (ok=%v), want %v", serverPID, reborn, ok, pairs[0].New)
	}
	if v := engB.Violations() + engC.Violations(); v != 0 {
		t.Errorf("%d protocol violations across adopter and client", v)
	}

	// The hand-off is durable on the adopter: its own restart sees the
	// mapping and a respawnable snapshot under the reborn PID.
	engB.Shutdown()
	if err := storeB.Close(); err != nil {
		t.Fatalf("close adopter store: %v", err)
	}
	storeB2, recB, err := durable.Open(dirB, 2, wal.SyncAlways, nil)
	if err != nil {
		t.Fatalf("reopen adopter store: %v", err)
	}
	defer storeB2.Close()
	origin, ok := recB.Transplants[pairs[0].New]
	if !ok || origin.From != 1 || origin.OldPID != serverPID {
		t.Fatalf("recovered transplant origin = %+v (ok=%v), want from node 1, old %v", origin, ok, serverPID)
	}
	r := recB.Restore[pairs[0].New]
	if r == nil || len(r.Intervals) == 0 {
		t.Fatalf("no respawnable snapshot recovered for the reborn PID: %v", r)
	}
}

// TestTransplantAdoptedKeysDoNotCollide reproduces the adopter-side key
// collision (DESIGN.md §13): a corpse's journalled receives carry the
// corpse's WAL identities (SrcNode/SrcSeq of frames it was delivered),
// which name the same (node, seq) space as the adopter's own inbox.
// Adopt a process whose journal consumed node 3's seq 5, let the
// adopter's own connection from node 3 deliver its seq 5 unconsumed,
// checkpoint, restart: the adopter's frame must still be redelivered,
// not retired by the adopted receive re-folded from the bracket.
func TestTransplantAdoptedKeysDoNotCollide(t *testing.T) {
	net := netsim.New(netsim.Constant(0))
	defer net.Close()
	dir := t.TempDir()
	store, _, err := durable.OpenOptions(durable.Options{Dir: dir, NodeID: 2, Policy: wal.SyncAlways, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.Config{PIDBase: 2 << routePIDBits, Transport: &sharedNet{Transport: net}, Persist: store})

	old, peer := ids.PID(1<<routePIDBits+1), ids.PID(3<<routePIDBits+1)
	in := msg.Data(peer, old, ids.IntervalID{}, nil, 5)
	in.SrcNode, in.SrcSeq = 3, 5
	procs := map[ids.PID]*core.Restored{old: {
		Intervals: []core.RestoredInterval{{ID: ids.IntervalID{Proc: old, Epoch: 1}, Kind: interval.Root, Definite: true}},
		Entries:   []*journal.Entry{{Kind: journal.KindRecv, Msg: in}},
		NextSeq:   1,
		MaxEpoch:  1,
	}}
	replayed := make(chan any, 1)
	body := func(ctx *core.Ctx) error {
		v, _, err := ctx.Recv()
		if err != nil {
			return err
		}
		replayed <- v
		_, _, err = ctx.Recv() // park until shutdown
		return err
	}
	if pairs, err := eng.AdoptProcesses(1, procs, nil, body); err != nil || len(pairs) != 1 {
		t.Fatalf("AdoptProcesses = %v, %v", pairs, err)
	}
	select {
	case v := <-replayed:
		if v != 5 {
			t.Fatalf("replayed receive = %v, want 5", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the adopted journal was not replayed")
	}

	own, err := wire.EncodeMessage(msg.Data(peer, ids.PID(2<<routePIDBits+1), ids.IntervalID{}, nil, "own"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Delivered(3, 5, own); err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, rec, err := durable.Open(dir, 2, wal.SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if len(rec.Redeliver) != 1 || rec.Redeliver[0].Payload != "own" {
		t.Fatalf("redeliver = %v, want the adopter's own unconsumed frame from node 3", rec.Redeliver)
	}
}
