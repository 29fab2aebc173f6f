package main

// Unit-cost loops (--micro, and every traced run at a smaller budget).
// Each loop calls only exported functions of one layer, so the number is
// that layer's cost with nothing else running; the seam counts of a
// traced run multiply it back into a per-job budget.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/hope-dist/hope/internal/aid"
	"github.com/hope-dist/hope/internal/cluster"
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/durable"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/interval"
	"github.com/hope-dist/hope/internal/journal"
	"github.com/hope-dist/hope/internal/mailbox"
	"github.com/hope-dist/hope/internal/msg"
	"github.com/hope-dist/hope/internal/netsim"
	"github.com/hope-dist/hope/internal/rpc"
	"github.com/hope-dist/hope/internal/stability"
	"github.com/hope-dist/hope/internal/wal"
	"github.com/hope-dist/hope/internal/wire"
)

// microConfig sizes the loops: each runs for at least budget, reps
// times, and reports the median.
type microConfig struct {
	budget time.Duration
	reps   int
}

var (
	fullMicro   = microConfig{budget: 200 * time.Millisecond, reps: 5}
	tracedMicro = microConfig{budget: 15 * time.Millisecond, reps: 3}
)

const engineSettle = 10 * time.Second

// sink defeats dead-code elimination of a measured call's result.
var sink int

// nsPerOp times op in batches until the budget elapses and returns the
// median ns/op over the reps.
func (c microConfig) nsPerOp(op func()) float64 {
	const batch = 64
	vals := make([]float64, 0, c.reps)
	for r := 0; r < c.reps; r++ {
		n := 0
		start := time.Now()
		var elapsed time.Duration
		for elapsed < c.budget {
			for i := 0; i < batch; i++ {
				op()
			}
			n += batch
			elapsed = time.Since(start)
		}
		vals = append(vals, float64(elapsed)/float64(n))
	}
	return median(vals)
}

// medianOf runs f reps times and returns the median of its results.
func (c microConfig) medianOf(f func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, c.reps)
	for r := 0; r < c.reps; r++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// allocsPerOp counts heap allocations of op on a quiet process.
func allocsPerOp(op func()) float64 {
	const n = 2000
	op()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n
}

// runMicro runs every unit loop and returns metric name → value.
func runMicro(c microConfig) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, part := range []func(microConfig, map[string]float64) error{
		microWire, microLoopback, microCore, microSmallLayers, microWAL, microStability,
	} {
		if err := part(c, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func microWire(c microConfig, out map[string]float64) error {
	from, to := wire.PIDBase(0)+7, wire.PIDBase(1)+9
	iid := ids.IntervalID{Proc: from, Seq: 3, Epoch: 41}
	x, y := ids.AID(wire.PIDBase(0)+11), ids.AID(wire.PIDBase(0)+12)
	ctrl := msg.Affirm(from, iid, x, []ids.AID{y})
	data := msg.Data(from, to, iid, []ids.AID{x, y},
		rpc.Request{ReplyTo: from, Method: rpc.MethodPrint, Seq: 5})

	var buf []byte
	for _, tc := range []struct {
		name string
		m    *msg.Message
	}{{"ctrl", ctrl}, {"data", data}} {
		enc, err := wire.EncodeMessage(tc.m)
		if err != nil {
			return fmt.Errorf("micro wire: %w", err)
		}
		if _, err := wire.DecodeMessage(enc); err != nil {
			return fmt.Errorf("micro wire: %w", err)
		}
		encode := func() {
			buf, _ = wire.AppendMessage(buf[:0], tc.m)
			sink += len(buf)
		}
		decode := func() {
			m, _ := wire.DecodeMessage(enc)
			sink += int(m.Kind)
		}
		out["wire.encode_"+tc.name+"_ns"] = c.nsPerOp(encode)
		out["wire.decode_"+tc.name+"_ns"] = c.nsPerOp(decode)
		if tc.name == "data" {
			out["wire.encode_data_allocs"] = allocsPerOp(encode)
			out["wire.decode_data_allocs"] = allocsPerOp(decode)
		}
	}
	return nil
}

// microLoopback ping-pongs one control message between two wire nodes.
func microLoopback(c microConfig, out map[string]float64) error {
	a, err := wire.NewNode(wire.NodeConfig{ID: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := wire.NewNode(wire.NodeConfig{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer b.Close()
	a.SetPeer(1, b.Addr())
	b.SetPeer(0, a.Addr())

	pa, pb := wire.PIDBase(0)+1, wire.PIDBase(1)+1
	back := make(chan struct{}, 1)
	a.Register(pa, func(*msg.Message) { back <- struct{}{} })
	pong := &msg.Message{Kind: msg.KindAffirm, From: pb, To: pa, AID: 7}
	b.Register(pb, func(*msg.Message) { b.Send(pong) })
	ping := &msg.Message{Kind: msg.KindAffirm, From: pa, To: pb, AID: 7}

	roundTrip := func() error {
		a.Send(ping)
		select {
		case <-back:
			return nil
		case <-time.After(engineSettle):
			return fmt.Errorf("micro loopback: no pong within %v", engineSettle)
		}
	}
	for i := 0; i < 32; i++ { // dial, handshake, pools
		if err := roundTrip(); err != nil {
			return err
		}
	}
	var rtts []float64
	deadline := time.Now().Add(c.budget * time.Duration(c.reps))
	for time.Now().Before(deadline) {
		t0 := time.Now()
		if err := roundTrip(); err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(rtts)
	out["wire.loopback_rtt_us_p50"] = percentile(rtts, 50)
	return nil
}

// primitiveTimes is E9 with tails: wall time of each guess and each
// affirm call on an engine whose network has the given one-way latency.
// Wait-freedom says neither depends on the latency.
func primitiveTimes(latency time.Duration, n int) (guess, affirm []float64, err error) {
	eng := core.NewEngine(core.Config{Transport: netsim.New(netsim.Constant(latency))})
	defer eng.Shutdown()
	aids := make([]ids.AID, n)
	for i := range aids {
		if aids[i], err = eng.NewAID(); err != nil {
			return nil, nil, err
		}
	}
	guess, affirm = make([]float64, n), make([]float64, n)
	var done sync.WaitGroup
	done.Add(2)
	spawn := func(times []float64, prim func(*core.Ctx, ids.AID)) error {
		_, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
			defer done.Done()
			for i, x := range aids {
				t0 := time.Now()
				prim(ctx, x)
				times[i] = float64(time.Since(t0)) / 1e3
			}
			return nil
		})
		return err
	}
	if err := spawn(guess, func(ctx *core.Ctx, x ids.AID) { ctx.Guess(x) }); err != nil {
		return nil, nil, err
	}
	if err := spawn(affirm, func(ctx *core.Ctx, x ids.AID) { ctx.Affirm(x) }); err != nil {
		return nil, nil, err
	}
	done.Wait()
	if !eng.Settle(engineSettle) {
		return nil, nil, fmt.Errorf("micro core: no settle at latency %v", latency)
	}
	sort.Float64s(guess)
	sort.Float64s(affirm)
	return guess, affirm, nil
}

// replayPerEntry measures one deny → rollback → restart → re-reach cycle
// over a body that journalled n records before its guess, per record.
func replayPerEntry(n int) (float64, error) {
	eng := core.NewEngine(core.Config{})
	defer eng.Shutdown()
	x, err := eng.NewAID()
	if err != nil {
		return 0, err
	}
	reached := make(chan bool, 2)
	if _, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		for j := 0; j < n; j++ {
			ctx.Record(func() any { return j })
		}
		reached <- ctx.Guess(x)
		return nil
	}); err != nil {
		return 0, err
	}
	if ok := <-reached; !ok {
		return 0, fmt.Errorf("micro replay: first guess answered false")
	}
	t0 := time.Now()
	if _, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		ctx.Deny(x)
		return nil
	}); err != nil {
		return 0, err
	}
	select {
	case ok := <-reached:
		if ok {
			return 0, fmt.Errorf("micro replay: guess still true after deny")
		}
	case <-time.After(engineSettle):
		return 0, fmt.Errorf("micro replay: body never re-reached its guess")
	}
	return float64(time.Since(t0)) / 1e3 / float64(n), nil
}

func microCore(c microConfig, out map[string]float64) error {
	const prims = 256
	for _, lc := range []struct {
		name    string
		latency time.Duration
	}{{"lat0", 0}, {"lat5ms", 5 * time.Millisecond}} {
		var g50, a50, g99 []float64
		for r := 0; r < c.reps; r++ {
			g, a, err := primitiveTimes(lc.latency, prims)
			if err != nil {
				return err
			}
			g50 = append(g50, percentile(g, 50))
			a50 = append(a50, percentile(a, 50))
			g99 = append(g99, percentile(g, 99))
		}
		out["core.guess_us_"+lc.name] = median(g50)
		out["core.affirm_us_"+lc.name] = median(a50)
		if lc.latency > 0 {
			out["core.guess_us_p99_"+lc.name] = median(g99)
		}
	}
	for _, n := range []int{64, 1024} {
		v, err := c.medianOf(func() (float64, error) { return replayPerEntry(n) })
		if err != nil {
			return err
		}
		out[fmt.Sprintf("core.replay_us_per_entry_%d", n)] = v
	}
	return nil
}

func microSmallLayers(c microConfig, out map[string]float64) error {
	pid := wire.PIDBase(0) + 5
	self := ids.AID(wire.PIDBase(0) + 6)
	iidOf := func(i int) ids.IntervalID { return ids.IntervalID{Proc: pid, Seq: uint32(i + 1), Epoch: uint32(i + 1)} }

	// aid: eight guesses make the machine Hot with eight dependents; one
	// unconditional affirm resolves them all.
	const guesses = 8
	steps := make([]*msg.Message, 0, guesses+1)
	for i := 0; i < guesses; i++ {
		steps = append(steps, msg.Guess(pid, iidOf(i), self))
	}
	steps = append(steps, msg.Affirm(pid, iidOf(guesses), self, nil))
	out["aid.step_ns"] = c.nsPerOp(func() {
		m := aid.NewMachine(self, nil)
		for _, s := range steps {
			sink += len(m.Step(s))
		}
	}) / float64(len(steps))

	hot := aid.NewMachine(self, nil)
	for _, s := range steps[:guesses] {
		hot.Step(s)
	}
	var buf []byte
	out["aid.export_encode_ns"] = c.nsPerOp(func() {
		buf = aid.AppendExport(buf[:0], hot.Export())
		sink += len(buf)
	})

	// interval: a chain of eight one-for-one replacements, then the empty
	// replacement that makes the interval finalizable.
	const chain = 8
	links := make([]ids.AID, chain+1)
	for i := range links {
		links[i] = ids.AID(uint64(self) + uint64(i) + 1)
	}
	out["interval.apply_replace_ns"] = c.nsPerOp(func() {
		rec := interval.NewRecord(iidOf(0), interval.Guessed, 0)
		rec.IDO.Add(links[0])
		for i := 0; i < chain; i++ {
			interval.ApplyReplace(interval.Algorithm2, rec, links[i], links[i+1:i+2])
		}
		if !interval.ApplyReplace(interval.Algorithm2, rec, links[chain], nil).Finalize {
			sink++
		}
	}) / float64(chain+1)

	// journal: appends of one prepared entry, and truncation of a
	// 1024-entry suffix (what a rollback to the body's start costs).
	const depth = 1024
	entry := &journal.Entry{Kind: journal.KindNote, Note: 1}
	var j journal.Journal
	out["journal.append_ns"] = c.nsPerOp(func() {
		if j.Len() >= depth {
			j = journal.Journal{}
		}
		sink += j.Append(entry)
	})
	truncate, err := c.medianOf(func() (float64, error) {
		// Only the truncation is timed; the refill is not.
		const rounds = 64
		var total time.Duration
		for r := 0; r < rounds; r++ {
			for j.Len() < depth {
				j.Append(entry)
			}
			t0 := time.Now()
			sink += len(j.Truncate(0))
			total += time.Since(t0)
		}
		return float64(total) / rounds, nil
	})
	if err != nil {
		return err
	}
	out["journal.truncate_ns"] = truncate

	// mailbox: uncontended put+recv, then two producers against one
	// consumer (two lanes' traffic converging on one peer link).
	m := &msg.Message{Kind: msg.KindData, From: pid, To: pid}
	box := mailbox.New()
	out["mailbox.put_recv_ns"] = c.nsPerOp(func() {
		box.Put(m)
		got, _ := box.Recv()
		sink += int(got.Kind)
	})
	contended, err := c.medianOf(func() (float64, error) {
		const producers, each = 2, 20000
		box := mailbox.New()
		start := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					box.Put(m)
				}
			}()
		}
		for i := 0; i < producers*each; i++ {
			if _, err := box.Recv(); err != nil {
				return 0, err
			}
		}
		wg.Wait()
		return float64(time.Since(start)) / float64(producers*each), nil
	})
	if err != nil {
		return err
	}
	out["mailbox.put_recv_contended_ns"] = contended

	ring := cluster.NewRing([]int{0, 1, 2}, 0)
	key := uint64(0)
	out["cluster.ring_owner_ns"] = c.nsPerOp(func() {
		key += 0x9e3779b97f4a7c15
		o, _ := ring.Owner(key)
		sink += o
	})
	return nil
}

func microWAL(c microConfig, out map[string]float64) error {
	dir, err := os.MkdirTemp("", "hope-perf-micro-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	payload := make([]byte, 64)
	open := func(name string, policy wal.Policy) (*wal.Log, error) {
		// Millions of appends fit a loop's budget; 16 MiB segments,
		// pruned as they close, keep them from filling the disk.
		return wal.Open(wal.Options{Dir: filepath.Join(dir, name), Policy: policy, SegmentBytes: 16 << 20})
	}
	for _, pc := range []struct {
		name   string
		policy wal.Policy
	}{{"none", wal.SyncNone}, {"interval", wal.SyncInterval}} {
		log, err := open("wal-"+pc.name, pc.policy)
		if err != nil {
			return err
		}
		v, err := c.medianOf(func() (float64, error) {
			const batch = 4096
			n, busy := 0, time.Duration(0)
			for busy < c.budget {
				t0 := time.Now()
				for i := 0; i < batch; i++ {
					if _, err := log.Append(payload); err != nil {
						return 0, err
					}
				}
				busy += time.Since(t0)
				n += batch
				if err := log.Prune(log.NextLSN()); err != nil {
					return 0, err
				}
			}
			return float64(busy) / float64(n), nil
		})
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("micro wal %s: %w", pc.name, err)
		}
		out["wal.append_"+pc.name+"_ns"] = v
	}

	// fsync=always: the wall time one appender sees per append, alone and
	// sharing group commits with seven others.
	for _, appenders := range []int{1, 8} {
		log, err := open(fmt.Sprintf("wal-always-%d", appenders), wal.SyncAlways)
		if err != nil {
			return err
		}
		v, err := c.medianOf(func() (float64, error) {
			var wg sync.WaitGroup
			counts := make([]int, appenders)
			errs := make([]error, appenders)
			start := time.Now()
			for a := 0; a < appenders; a++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for time.Since(start) < c.budget {
						if _, errs[a] = log.Append(payload); errs[a] != nil {
							return
						}
						counts[a]++
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			total := 0
			for a := range counts {
				if errs[a] != nil {
					return 0, errs[a]
				}
				total += counts[a]
			}
			return float64(elapsed) / 1e3 * float64(appenders) / float64(total), nil
		})
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("micro wal always×%d: %w", appenders, err)
		}
		out[fmt.Sprintf("wal.append_always_us_%d", appenders)] = v
	}

	// durable: one journalled receive through the store, hoped's defaults.
	store, _, err := durable.OpenOptions(durable.Options{
		Dir: filepath.Join(dir, "durable"), NodeID: 0,
		Policy: wal.SyncInterval, CheckpointEvery: 4096,
	})
	if err != nil {
		return err
	}
	pid := wire.PIDBase(0) + 5
	entry := &journal.Entry{Kind: journal.KindRecv, Msg: msg.Data(pid+1, pid, ids.IntervalID{}, nil,
		rpc.Response{Seq: 1, Result: 2})}
	out["durable.journal_append_ns"] = c.nsPerOp(func() { store.JournalAppend(pid, entry) })
	if n := store.EncodeErrors(); n != 0 {
		store.Close()
		return fmt.Errorf("micro durable: %d encode errors", n)
	}
	return store.Close()
}

func microStability(c microConfig, out map[string]float64) error {
	for _, n := range []int{3, 16} {
		members := make([]int, n)
		r1, r2 := make(map[int]stability.Report, n), make(map[int]stability.Report, n)
		for i := range members {
			members[i] = i
		}
		for _, i := range members {
			sent, delivered := make(map[int]uint64, n), make(map[int]uint64, n)
			for _, jn := range members {
				if jn != i {
					sent[jn], delivered[jn] = 100, 100
				}
			}
			rep := stability.Report{Node: i, Events: 9, MaxEpoch: 40, Quiet: true, Sent: sent, Delivered: delivered}
			rep.Sweep = 1
			r1[i] = rep
			rep.Sweep = 2
			r2[i] = rep
		}
		if err := stability.ValidCut(0, members, r1, r2); err != nil {
			return fmt.Errorf("micro stability: %w", err)
		}
		out[fmt.Sprintf("stability.valid_cut_ns_%d", n)] = c.nsPerOp(func() {
			if stability.ValidCut(0, members, r1, r2) != nil {
				sink++
			}
		})
	}
	return nil
}
