package main

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// meta is the run metadata attached to every result: enough to say
// which code, on what machine shape, with which settings produced a
// number.
type meta struct {
	GitSHA     string `json:"git_sha"` // "unknown" outside a git checkout or under `go run`
	GitDirty   bool   `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Start      string `json:"start"` // wall clock, RFC 3339

	Seed          int64   `json:"seed"`
	Lanes         int     `json:"lanes"`
	WindowSeconds float64 `json:"window_seconds"`
	Stacks        int     `json:"stacks"` // fresh stacks the window is split over
	WarmupJobs    int     `json:"warmup_jobs"`

	// Node configuration of the workload.
	Worker          string `json:"worker"`
	PageSize        string `json:"page_size"`
	Barrier         bool   `json:"barrier"`
	Durable         bool   `json:"durable"`
	Fsync           string `json:"fsync,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	Watermark       bool   `json:"watermark"`
	WatermarkEvery  string `json:"watermark_every,omitempty"`
}

func newMeta(w workload, o runOptions) meta {
	m := meta{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Start:      processStart.Format(time.RFC3339),

		Seed:          o.seed,
		Lanes:         min(w.lanes, runtime.NumCPU()),
		WindowSeconds: o.window.Seconds(),
		Stacks:        o.stacks,
		WarmupJobs:    o.warmup,

		Worker:    "rpc.StreamedWorker",
		PageSize:  strconv.Itoa(w.pageSize),
		Barrier:   w.barrier,
		Durable:   w.stack.durable,
		Watermark: w.stack.watermark,
	}
	if w.pageSize == jobPerPage {
		m.PageSize = "2R-1"
	}
	if w.pessimistic {
		m.Worker = "rpc.PessimisticWorker"
	}
	if w.stack.durable {
		m.Fsync, m.CheckpointEvery = w.stack.fsync.String(), w.stack.checkpointEvery
	}
	if w.stack.watermark {
		m.WatermarkEvery = w.stack.watermarkEvery.String()
	}
	// `go build` stamps the VCS state into the binary; nothing is spawned
	// and nothing outside the checkout is read.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitSHA = s.Value
			case "vcs.modified":
				m.GitDirty = s.Value == "true"
			}
		}
	}
	return m
}
