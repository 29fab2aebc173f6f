package main

import (
	"time"

	"github.com/hope-dist/hope/internal/wal"
)

// Fixed shape of a job and of the loop that drives it. These are
// constants, not flags: a later PR is judged against numbers measured
// with exactly these values.
const (
	minReports = 4  // R is uniform in [minReports, maxReports], mean 8
	maxReports = 12 //
	neverDeny  = 1 << 30
	jobPerPage = 0 // as a pageSize: a page ends on the job's last total (see pageSizeFor)

	jobTimeout     = time.Second      // a job not committed by then is failed
	barrierTimeout = 10 * time.Second // rpc-miss quiescence barrier
	probeTimeout   = 5 * time.Second  // layout probe round trip
	warmupJobs     = 32               // per stack, split across lanes; part of setup_s
	stacksPerRun   = 5                // fresh stacks the measured window is split over
)

// workload is one named configuration of the 2-node stack and the job
// stream driven through it.
type workload struct {
	name        string
	lanes       int  // closed-loop client lanes (capped at nproc)
	pessimistic bool // rpc.PessimisticWorker instead of rpc.StreamedWorker
	pageSize    int
	barrier     bool // wait for distributed quiescence between jobs
	checkEvery  int  // jobs between layout probes on a lane
	stack       stackConfig
}

// workloads is the benchmark's fixed workload set; perf/README.md says
// why each exists. BENCHMARK.json names the same five.
var workloads = []workload{
	{name: "rpc-hit", lanes: 2, pageSize: neverDeny, checkEvery: 64},
	{name: "rpc-sync", lanes: 2, pageSize: neverDeny, checkEvery: 64, pessimistic: true},
	// One denial per job, on its last report. A denial anywhere earlier
	// races the re-streamed requests against the server's rollback and
	// duplicates a print in about one job in a hundred (perf/README.md,
	// "Known state at seed"); a benchmark's operations must not fail.
	{name: "rpc-miss", lanes: 1, pageSize: jobPerPage, checkEvery: 1, barrier: true},
	{name: "rpc-hit-durable", lanes: 2, pageSize: neverDeny, checkEvery: 64,
		stack: stackConfig{durable: true, fsync: wal.SyncNone, checkpointEvery: 4096}},
	{name: "rpc-hit-watermark", lanes: 2, pageSize: neverDeny, checkEvery: 64,
		stack: stackConfig{watermark: true, watermarkEvery: 10 * time.Millisecond}},
}

// pageSizeFor is the page size a job of the given report count prints
// under. With jobPerPage the job's last total is the page's last line —
// 2·reports−1 lines in, on the fresh page the layout check after every
// job leaves behind — so every guess but the last holds.
func (w workload) pageSizeFor(reports int) int {
	if w.pageSize == jobPerPage {
		return 2*reports - 1
	}
	return w.pageSize
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
