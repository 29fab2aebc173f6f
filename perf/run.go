package main

// One run of one workload. The measured window is split over several
// fresh stacks (build, warm up, measure, check, tear down — each time):
// nothing in a node is ever collected, so a stack slows down and gets
// noisier the longer it lives, and a run on one long-lived stack measures
// mostly how far into that decay it got. Set-up is timed on every stack
// and reported as their median.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hope-dist/hope/internal/msg"
)

// processStart approximates process start: package variables are
// initialized before main runs.
var processStart = time.Now()

type runOptions struct {
	seed     int64
	window   time.Duration // total measured time, split evenly over the stacks
	traced   bool
	traceOut string        // traced runs write their spans here ("" = nowhere)
	micro    microConfig   // unit-loop budget of a traced run
	hostRef  time.Duration // length of one host-reference kernel burst
	stacks   int           // fresh stacks the window is split over
	warmup   int           // jobs per stack before it counts as set up
}

// result is everything one run reports.
type result struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Meta     meta   `json:"meta"`
	// Correct is false when the run has Problems. A job whose output was
	// wrong or missing does not make the run incorrect: it is counted in
	// Failed and excluded from every metric but failed_share.
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// HostSpeed is the median over the windows of the host's speed
	// (hostref.go); Clock holds an untraced run's end-to-end metrics as
	// the clock read them, before the conversion to reference time.
	HostSpeed float64            `json:"host_speed"`
	Clock     map[string]float64 `json:"clock,omitempty"`
	// Samples holds the sample count behind every percentile metric.
	Samples map[string]int `json:"samples"`
	// SubWindows holds min/median/max over the stacks' windows for the
	// metrics that have a per-window value, so noise inside a run shows.
	SubWindows map[string][3]float64 `json:"sub_windows,omitempty"`
	// Problems are reasons the run must exit non-zero: protocol
	// violations, codec errors, a stack that would not shut down.
	Problems []string `json:"problems,omitempty"`
	// FailReasons samples why jobs failed (the latest per lane and stack).
	FailReasons []string `json:"fail_reasons,omitempty"`
}

// rig is a running stack with its lanes.
type rig struct {
	st    *stack
	sm    *seams
	lanes []*lane
}

// startRig builds the stack and its lanes and runs the warm-up jobs; when
// it returns the stack has committed and checked work on every lane. A
// warm-up job that fails re-bases its lane like any other; checkRig
// reports it.
func startRig(w workload, dir string, sm *seams, o runOptions, stackIndex int) (*rig, error) {
	nLanes := min(w.lanes, runtime.NumCPU())
	lt := &laneTracer{}
	st, err := buildStack(w.stack, dir, sm, lt)
	if err != nil {
		return nil, err
	}
	r := &rig{st: st, sm: sm}
	for id := 0; id < nLanes; id++ {
		// Every (stack, lane) pair draws its own job stream from --seed.
		l, err := newLane(stackIndex, id, w, st, sm, o.seed*1_000_003+int64(stackIndex*nLanes+id))
		if err != nil {
			r.close()
			return nil, err
		}
		r.lanes = append(r.lanes, l)
	}
	// The tracer reads lt.lanes from engine goroutines; no job — hence no
	// event naming a worker — exists before this assignment.
	lt.lanes = r.lanes
	if err := r.each(func(l *lane) error { return l.runJobs((o.warmup + nLanes - 1) / nLanes) }); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// each runs f on every lane concurrently and returns the first error.
func (r *rig) each(f func(*lane) error) error {
	errs := make([]error, len(r.lanes))
	var wg sync.WaitGroup
	for i, l := range r.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(l)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *rig) close() error { return r.st.close() }

// counters is a snapshot of every cumulative count a window is the
// difference of.
type counters struct {
	at         time.Time
	cpu        time.Duration
	mem        runtime.MemStats
	wire       wireCounts
	wal        walCounts
	procs      int
	violations int64
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func (r *rig) snapshot() counters {
	c := counters{
		wire: r.st.wireCounts(), wal: r.st.walCounts(),
		procs: r.st.procs(), violations: r.st.violations(),
	}
	runtime.ReadMemStats(&c.mem)
	ru := rusage()
	c.cpu, c.at = time.Duration(ru.Utime.Nano()+ru.Stime.Nano()), time.Now()
	return c
}

// window is what one stack's measured window — or, after merge, the
// run's windows together — observed.
type window struct {
	elapsed time.Duration // wall time less what lanes lost to timed-out jobs
	cpu     time.Duration
	// host is the host's speed around the window (hostref.go); elapsedRef
	// and cpuRef are elapsed and cpu in reference time, that is × host.
	host       float64
	elapsedRef time.Duration
	cpuRef     time.Duration
	retained   float64 // bytes: live heap after a forced GC at the end, minus at the start
	mallocs    float64
	allocBytes float64
	gcPauseNS  float64
	wire       wireCounts
	wal        walCounts
	procs      int
	violations int64
	goroutines int         // peak, sampled (traced runs)
	jobs       []jobRecord // every job attempted
}

func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// measure runs every lane for d and returns what happened. The host's
// speed is taken right before and right after.
func (r *rig) measure(d time.Duration, host *hostRef) (*window, error) {
	w := &window{}
	speedBefore, err := host.speed()
	if err != nil {
		return nil, err
	}
	first := make([]int, len(r.lanes))
	for i, l := range r.lanes {
		first[i] = len(l.records)
	}
	heapBefore := liveHeap()
	stop := make(chan struct{})
	var sampled sync.WaitGroup
	if r.sm != nil {
		// Warm-up is over and the lanes are idle: what the seams have
		// recorded so far is not part of the window.
		r.sm.reset()
		sampled.Add(1)
		go func() {
			defer sampled.Done()
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				w.goroutines = max(w.goroutines, runtime.NumGoroutine())
				select {
				case <-stop:
					return
				case <-t.C:
				}
			}
		}()
	}
	stalled := func() (total time.Duration) {
		for _, l := range r.lanes {
			total += l.stalled
		}
		return total / time.Duration(len(r.lanes))
	}
	before, stalledBefore := r.snapshot(), stalled()
	// Time lost to jobs that time out is given back, up to a window's
	// worth, and left out of the elapsed time (see lane.deadline).
	var deadline atomic.Int64
	deadline.Store(int64(before.at.Add(d).Sub(processStart)))
	limit := deadline.Load() + int64(d)
	err = r.each(func(l *lane) error { return l.runUntil(&deadline, limit) })
	after := r.snapshot()
	close(stop)
	sampled.Wait()
	speedAfter, herr := host.speed()
	if herr != nil {
		return nil, herr
	}
	w.host = (speedBefore + speedAfter) / 2

	w.elapsed = after.at.Sub(before.at) - (stalled() - stalledBefore)
	w.cpu = after.cpu - before.cpu
	w.elapsedRef = time.Duration(float64(w.elapsed) * w.host)
	w.cpuRef = time.Duration(float64(w.cpu) * w.host)
	w.retained = liveHeap() - heapBefore
	w.mallocs = float64(after.mem.Mallocs - before.mem.Mallocs)
	w.allocBytes = float64(after.mem.TotalAlloc - before.mem.TotalAlloc)
	w.gcPauseNS = float64(after.mem.PauseTotalNs - before.mem.PauseTotalNs)
	w.wire, w.wal = after.wire.minus(before.wire), after.wal.minus(before.wal)
	w.procs, w.violations = after.procs-before.procs, after.violations-before.violations
	for i, l := range r.lanes {
		for _, j := range l.records[first[i]:] {
			j.Host = w.host
			w.jobs = append(w.jobs, j)
		}
	}
	return w, err
}

// merge adds the stacks' windows up into the run's.
func merge(ws []*window) *window {
	t := &window{}
	for _, w := range ws {
		t.elapsed += w.elapsed
		t.cpu += w.cpu
		t.elapsedRef += w.elapsedRef
		t.cpuRef += w.cpuRef
		t.retained += w.retained
		t.mallocs += w.mallocs
		t.allocBytes += w.allocBytes
		t.gcPauseNS += w.gcPauseNS
		t.wire, t.wal = t.wire.plus(w.wire), t.wal.plus(w.wal)
		t.procs += w.procs
		t.violations += w.violations
		t.goroutines = max(t.goroutines, w.goroutines)
		t.jobs = append(t.jobs, w.jobs...)
	}
	return t
}

// okJobs returns the jobs that committed and passed every check.
func (w *window) okJobs() []jobRecord {
	ok := make([]jobRecord, 0, len(w.jobs))
	for _, j := range w.jobs {
		if j.Failed == "" {
			ok = append(ok, j)
		}
	}
	return ok
}

// endToEnd computes the user-visible metrics of one window: as the
// clock read them, or — inRefTime — in reference time, every duration
// multiplied by the host's speed around its window (hostref.go).
func (w *window) endToEnd(inRefTime bool) map[string]float64 {
	elapsed, cpu := w.elapsed, w.cpu
	if inRefTime {
		elapsed, cpu = w.elapsedRef, w.cpuRef
	}
	// A failed job misses every latency percentile: it counts as the
	// job timeout.
	timeout := float64(jobTimeout) / 1e6
	spec, commit := make([]float64, 0, len(w.jobs)), make([]float64, 0, len(w.jobs))
	ok := 0.0
	for _, j := range w.jobs {
		if j.Failed != "" {
			spec, commit = append(spec, timeout), append(commit, timeout)
			continue
		}
		ok++
		host := 1.0
		if inRefTime {
			host = j.Host
		}
		spec, commit = append(spec, float64(j.Spec)/1e6*host), append(commit, float64(j.Commit)/1e6*host)
	}
	sort.Float64s(spec)
	sort.Float64s(commit)
	return map[string]float64{
		"jobs_per_s":          per(ok, elapsed.Seconds()),
		"spec_ms_p50":         percentile(spec, 50),
		"spec_ms_p95":         percentile(spec, 95),
		"commit_ms_p50":       percentile(commit, 50),
		"commit_ms_p95":       percentile(commit, 95),
		"cpu_ms_per_job":      per(float64(cpu)/1e6, ok),
		"retained_kb_per_job": per(w.retained/1024, ok),
		"failed_share":        1 - per(ok, float64(len(w.jobs))),
	}
}

// timerBound names the metrics a timer sets on a watermark workload —
// the stability agent's round gates every commit and, through the closed
// loop, the throughput (and the warm-up: see setup_s in runWorkload) — so
// that the host's speed has no part in them: they are reported as the
// clock read them.
var timerBound = []string{"jobs_per_s", "commit_ms_p50", "commit_ms_p95"}

// reported is endToEnd in reference time, but for what a timer sets.
func (w *window) reported(wl workload) map[string]float64 {
	v := w.endToEnd(true)
	if wl.stack.watermark {
		clock := w.endToEnd(false)
		for _, name := range timerBound {
			v[name] = clock[name]
		}
	}
	return v
}

// perLayerValues computes the seam metrics of the traced windows.
func (w *window) perLayerValues(wl workload, sm *seams, res *result) map[string]float64 {
	elapsed := w.elapsed.Seconds()
	okJobs := w.okJobs()
	jobs := float64(len(okJobs))
	perJob := func(x float64) float64 { return per(x, jobs) }
	e2e := w.reported(wl)
	v := map[string]float64{
		"failed_share":  e2e["failed_share"],
		"spec_ms_p95":   e2e["spec_ms_p95"],
		"commit_ms_p95": e2e["commit_ms_p95"],
	}
	samples := func(n uint64, names ...string) {
		for _, name := range names {
			res.Samples[name] = int(n)
		}
	}
	samples(uint64(len(w.jobs)), "spec_ms_p95", "commit_ms_p95")

	// transport
	var msgs float64
	for k := range sm.sent {
		msgs += float64(sm.sent[k].Load())
	}
	kind := func(k msg.Kind) float64 { return perJob(float64(sm.sent[int(k)].Load())) }
	v["transport.msgs_per_job"] = perJob(msgs)
	v["transport.guess_per_job"] = kind(msg.KindGuess)
	v["transport.affirm_per_job"] = kind(msg.KindAffirm)
	v["transport.deny_per_job"] = kind(msg.KindDeny)
	v["transport.replace_per_job"] = kind(msg.KindReplace)
	v["transport.rollback_per_job"] = kind(msg.KindRollback)
	v["transport.data_per_job"] = kind(msg.KindData)
	v["transport.dead_per_job"] = perJob(w.wire.dead)
	v["transport.send_us_p50"] = sm.send.quantileNS(50) / 1e3
	v["transport.send_us_p99"] = sm.send.quantileNS(99) / 1e3
	v["transport.handler_us_p50"] = sm.handler.quantileNS(50) / 1e3
	v["transport.handler_us_p99"] = sm.handler.quantileNS(99) / 1e3
	samples(sm.send.n(), "transport.send_us_p50", "transport.send_us_p99")
	samples(sm.handler.n(), "transport.handler_us_p50", "transport.handler_us_p99")

	// wire
	v["wire.frames_out_per_job"] = perJob(w.wire.framesOut)
	v["wire.bytes_out_per_job"] = perJob(w.wire.bytesOut)
	v["wire.flushes_per_job"] = perJob(w.wire.flushes)
	v["wire.frames_per_flush"] = per(w.wire.framesOut, w.wire.flushes)
	v["wire.acks_per_job"] = perJob(w.wire.acksSent)
	v["wire.resends_per_job"] = perJob(w.wire.resends)
	v["wire.queue_full"] = w.wire.queueFull
	var quiesce, lag, journalLens []float64
	for _, j := range okJobs {
		if wl.barrier {
			quiesce = append(quiesce, float64(j.Quiesce)/1e6)
		}
		// The release span is definite → commit; without a watermark
		// nothing gates the sink and there is no such span.
		if wl.stack.watermark {
			lag = append(lag, float64(j.Commit-j.Definite)/1e6)
		}
		journalLens = append(journalLens, float64(j.JournalLen))
	}
	sort.Float64s(quiesce)
	sort.Float64s(lag)
	sort.Float64s(journalLens)
	v["wire.quiesce_ms_p50"] = percentile(quiesce, 50)
	samples(uint64(len(quiesce)), "wire.quiesce_ms_p50")

	// core
	v["core.intervals_per_job"] = perJob(float64(sm.finalizes.Load()))
	v["core.guess_to_finalize_ms_p50"] = sm.guessToFin.quantileNS(50) / 1e6
	v["core.guess_to_finalize_ms_p95"] = sm.guessToFin.quantileNS(95) / 1e6
	samples(sm.guessToFin.n(), "core.guess_to_finalize_ms_p50", "core.guess_to_finalize_ms_p95")
	v["core.rollbacks_per_job"] = perJob(float64(sm.rollbacks.Load()))
	v["core.restarts_per_job"] = perJob(float64(sm.restarts.Load()))
	v["core.rollback_to_respec_ms_p50"] = sm.respec.quantileNS(50) / 1e6
	samples(sm.respec.n(), "core.rollback_to_respec_ms_p50")
	v["core.journal_len_p95"] = percentile(journalLens, 95)
	samples(uint64(len(journalLens)), "core.journal_len_p95")
	v["core.procs_per_job"] = perJob(float64(w.procs))
	v["core.violations"] = float64(w.violations)

	// durable, wal
	v["durable.persist_calls_per_job"] = perJob(float64(sm.persist.n()))
	v["durable.persist_us_per_job"] = perJob(sm.persist.totalNS() / 1e3)
	v["durable.wirehook_calls_per_job"] = perJob(float64(sm.wirehook.n()))
	v["durable.wirehook_us_per_job"] = perJob(sm.wirehook.totalNS() / 1e3)
	v["durable.barrier_calls_per_job"] = perJob(float64(sm.barrier.n()))
	v["durable.barrier_ms_per_job"] = perJob(sm.barrier.totalNS() / 1e6)
	v["wal.appends_per_job"] = perJob(w.wal.appends)
	v["wal.bytes_per_job"] = perJob(w.wal.bytes)
	v["wal.syncs_per_job"] = perJob(w.wal.syncs)
	v["wal.appends_per_sync"] = per(w.wal.appends, w.wal.syncs)

	// stability
	v["stability.advances_per_s"] = per(float64(sm.advances.Load()), elapsed)
	v["stability.release_lag_ms_p50"] = percentile(lag, 50)
	v["stability.release_lag_ms_p95"] = percentile(lag, 95)
	samples(uint64(len(lag)), "stability.release_lag_ms_p50", "stability.release_lag_ms_p95")
	v["stability.tracker_calls_per_job"] = perJob(float64(sm.tracker.n()))

	// proc
	v["proc.allocs_per_job"] = perJob(w.mallocs)
	v["proc.alloc_kb_per_job"] = perJob(w.allocBytes / 1024)
	v["proc.gc_pause_ms_per_s"] = per(w.gcPauseNS/1e6, elapsed)
	v["proc.goroutines_peak"] = float64(w.goroutines)
	v["proc.rss_peak_mb"] = float64(rusage().Maxrss) / 1024 // Linux reports KiB
	return v
}

// budget reconciles the traced windows' CPU per job with what the seams
// and the unit costs explain (perf/README.md, "How to read the budget").
func budget(v map[string]float64, sm *seams, w *window) {
	jobs := float64(len(w.okJobs()))
	cpu := per(float64(w.cpu)/1e6, jobs)
	// Seam self time, wall clock inside the calls. The durable barrier is
	// left out: it is fsync wait, not CPU.
	seamNS := sm.send.totalNS() - float64(sm.hookInSend.Load()) + sm.handler.totalNS() +
		sm.persist.totalNS() + sm.wirehook.totalNS() + sm.tracker.totalNS()
	// Work that runs under no seam: the peer's decode of every frame, the
	// AID machines' steps, Replace application, journal appends.
	frames := v["wire.frames_out_per_job"]
	data := min(v["transport.data_per_job"], frames)
	unitNS := data*v["wire.decode_data_ns"] + (frames-data)*v["wire.decode_ctrl_ns"] +
		(v["transport.guess_per_job"]+v["transport.affirm_per_job"]+v["transport.deny_per_job"])*v["aid.step_ns"] +
		v["transport.replace_per_job"]*v["interval.apply_replace_ns"] +
		v["core.journal_len_p95"]*v["journal.append_ns"]
	accounted := per(seamNS/1e6, jobs) + unitNS/1e6
	v["budget.accounted_share"] = per(accounted, cpu)
	v["budget.unaccounted_ms_per_job"] = cpu - accounted
}

// runWorkload performs one run. An error means the benchmark itself
// could not run; a run that ran but misbehaved comes back in the result.
func runWorkload(w workload, o runOptions) (*result, error) {
	res := &result{
		Workload: w.name, Traced: o.traced, Meta: newMeta(w, o),
		Samples: map[string]int{}, SubWindows: map[string][3]float64{},
	}
	root, err := os.MkdirTemp("", "hope-perf-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	host, err := openHostRef(o.hostRef)
	if err != nil {
		return nil, err
	}
	defer host.close()
	built := 0
	// oneStack builds a stack, measures a window of length d on it,
	// folds its integrity signals into res, and tears it down.
	oneStack := func(sm *seams, d time.Duration) (win *window, setup time.Duration, err error) {
		t0 := time.Now()
		if built == 0 {
			t0 = processStart
		}
		built++
		r, err := startRig(w, filepath.Join(root, fmt.Sprintf("stack%d", built)), sm, o, built)
		if err != nil {
			return nil, 0, err
		}
		setup = time.Since(t0)
		win, err = r.measure(d, host)
		res.checkRig(r)
		if cerr := r.close(); cerr != nil {
			res.Problems = append(res.Problems, cerr.Error())
		}
		return win, setup, err
	}
	slice := o.window / time.Duration(o.stacks)

	var units map[string]float64
	var refRate float64
	var sm *seams
	if o.traced {
		// The unit loops run first, while the process is still small: a
		// stack leaves a heap behind that would tax them.
		if units, err = runMicro(o.micro); err != nil {
			return nil, err
		}
		// An untraced reference window next, half a slice long to keep a
		// traced run inside the driver's time budget: the traced windows'
		// throughput against it is the tracing overhead.
		ref, _, err := oneStack(nil, slice/2)
		if err != nil {
			return nil, err
		}
		refRate = ref.endToEnd(true)["jobs_per_s"]
		sm = newSeams()
	}

	var wins []*window
	var setups, speeds []float64
	for i := 0; i < o.stacks; i++ {
		var one *seams
		if o.traced {
			one = newSeams()
		}
		win, setup, err := oneStack(one, slice)
		if err != nil {
			return nil, err
		}
		wins = append(wins, win)
		// Set-up ends where the window's first speed measurement begins.
		if !w.stack.watermark {
			setup = time.Duration(float64(setup) * win.host)
		}
		setups = append(setups, setup.Seconds())
		speeds = append(speeds, win.host)
		if o.traced {
			sm.merge(one)
		}
	}
	all := merge(wins)

	var values map[string]float64
	defs := endToEnd
	if !o.traced {
		// Headline values pool the stacks' windows; the spread over the
		// windows is reported beside them.
		values = all.reported(w)
		values["setup_s"] = median(setups)
		res.Clock = all.endToEnd(false)
		res.Samples["setup_s"] = len(setups)
		res.Samples["spec_ms_p50"], res.Samples["commit_ms_p50"] = len(all.jobs), len(all.jobs)
		perWindow := map[string][]float64{"setup_s": setups}
		for _, win := range wins {
			for name, x := range win.reported(w) {
				perWindow[name] = append(perWindow[name], x)
			}
		}
		for name, xs := range perWindow {
			sort.Float64s(xs)
			res.SubWindows[name] = [3]float64{xs[0], median(xs), xs[len(xs)-1]}
		}
	} else {
		defs = perLayer
		values = all.perLayerValues(w, sm, res)
		values["trace.overhead_pct"] = 100 * (1 - per(all.endToEnd(true)["jobs_per_s"], refRate))
		values["host.speed"] = median(speeds)
		for k, x := range units {
			values[k] = x
		}
		budget(values, sm, all)
	}

	res.HostSpeed = median(speeds)
	res.Attempted = len(all.jobs)
	res.Failed = len(all.jobs) - len(all.okJobs())
	if res.Attempted == 0 {
		res.Problems = append(res.Problems, "no job was attempted in the window")
	}
	var missing []string
	res.Metrics, missing = report(defs, values)
	if len(missing) > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("metrics not computed: %v", missing))
	}
	res.Correct = len(res.Problems) == 0
	if o.traced && o.traceOut != "" {
		if err := writeTrace(o.traceOut, res, all, sm); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkRig folds a stack's integrity signals into the result: why jobs
// failed, protocol violations, codec errors. They cover the stack's
// whole life, warm-up included.
func (res *result) checkRig(r *rig) {
	for _, l := range r.lanes {
		if l.lastReason != "" {
			res.FailReasons = append(res.FailReasons, fmt.Sprintf("lane %d: %s", l.id, l.lastReason))
		}
	}
	if v := r.st.violations(); v != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d protocol violations", v))
	}
	if wc := r.st.wireCounts(); wc.codecErrors != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%v wire encode/decode/CRC errors", wc.codecErrors))
	}
}

// traceFile is what a traced run writes to --trace-out: one span set per
// job (job = submit→commit; children spec, verify = spec→definite,
// release = definite→commit, quiesce) and every seam's calls aggregated.
type traceFile struct {
	Meta     meta              `json:"meta"`
	Workload string            `json:"workload"`
	Metrics  map[string]metric `json:"metrics"`
	Seams    []seamSpan        `json:"seams"`
	Jobs     []jobRecord       `json:"jobs"`
}

func writeTrace(path string, res *result, w *window, sm *seams) error {
	data, err := json.Marshal(traceFile{
		Meta: res.Meta, Workload: res.Workload, Metrics: res.Metrics,
		Seams: sm.spans(), Jobs: w.jobs,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
