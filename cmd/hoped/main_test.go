package main

import (
	"strings"
	"testing"
)

// TestPeerMapSet pins the flag-parsing contract for --peer/--join:
// well-formed entries accumulate, and the historical footguns — a
// duplicated node ID silently overwriting an earlier address, or an
// entry naming the node itself — are rejected with clear errors.
func TestPeerMapSet(t *testing.T) {
	p := peerMap{}
	if err := p.Set("0=127.0.0.1:7100"); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	if err := p.Set("2=127.0.0.1:7102"); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	if got := p.String(); got != "0=127.0.0.1:7100,2=127.0.0.1:7102" {
		t.Fatalf("String() = %q", got)
	}

	bad := []struct {
		in   string
		want string
	}{
		{"127.0.0.1:7100", "want N=host:port"},
		{"x=127.0.0.1:7100", "bad node id"},
		{"-1=127.0.0.1:7100", "out of range"},
		{"65536=127.0.0.1:7100", "out of range"},
		{"0=127.0.0.1:9999", "duplicate node id 0"},
		{"2=127.0.0.1:9999", "duplicate node id 2"},
	}
	for _, tc := range bad {
		err := p.Set(tc.in)
		if err == nil {
			t.Fatalf("Set(%q) accepted, want error containing %q", tc.in, tc.want)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Set(%q) error %q, want it to contain %q", tc.in, err, tc.want)
		}
	}
	// Rejected entries must not have mutated the map.
	if len(p) != 2 || p[0] != "127.0.0.1:7100" || p[2] != "127.0.0.1:7102" {
		t.Fatalf("map mutated by rejected entries: %v", p)
	}
}

// TestRunRejectsBadFlags drives run() just far enough to hit flag
// validation: each argument set must fail before any socket is bound.
func TestRunRejectsBadFlags(t *testing.T) {
	type flagCase struct {
		name string
		args []string
		want string
	}
	cases := []flagCase{
		{"self peer", []string{"--node", "2", "--serve", "none", "--peer", "2=127.0.0.1:7102"},
			"--peer 2=127.0.0.1:7102 names this node itself"},
		{"self join", []string{"--node", "3", "--serve", "none", "--join", "3=127.0.0.1:7103"},
			"--join 3=127.0.0.1:7103 names this node itself"},
		{"self peer, node flag after peer", []string{"--peer", "4=127.0.0.1:7104", "--node", "4", "--serve", "none"},
			"names this node itself"},
		{"duplicate peer", []string{"--node", "1", "--peer", "0=a:1", "--peer", "0=b:2"},
			"duplicate node id 0"},
		{"node out of range", []string{"--node", "65536"}, "out of range"},
		{"data-root without cluster", []string{"--node", "1", "--data-dir", "/d/node1", "--data-root", "/d"},
			"--data-root needs cluster mode"},
		{"data-root without data-dir", []string{"--node", "1", "--seed-node", "--data-root", "/d"},
			"--data-root needs --data-dir /d/node1"},
		{"data-dir outside data-root", []string{"--node", "1", "--seed-node", "--data-dir", "/elsewhere", "--data-root", "/d"},
			"--data-root needs --data-dir /d/node1"},
		{"data-root without printserver", []string{"--node", "1", "--seed-node", "--data-dir", "/d/node1", "--data-root", "/d", "--serve", "none"},
			"--data-root needs --serve printserver"},
		// Settings the node would otherwise ignore: the detector's
		// suspicion threshold without the detector, one past the death
		// threshold (the detector would quietly use dead-after/4), and the
		// WAL knobs on a volatile node, even at their default values.
		{"suspect-after without dead-after", []string{"--node", "1", "--suspect-after", "1s"},
			"--suspect-after needs --dead-after"},
		{"suspect-after exceeds dead-after", []string{"--node", "1", "--suspect-after", "2s", "--dead-after", "1s"},
			"--suspect-after 2s exceeds --dead-after 1s"},
		{"fsync without data-dir", []string{"--node", "1", "--fsync", "interval"},
			"--fsync/--checkpoint-every need --data-dir"},
		{"checkpoint-every without data-dir", []string{"--node", "1", "--checkpoint-every", "4096"},
			"--fsync/--checkpoint-every need --data-dir"},
	}
	// Retired tuning knobs: the transport has one write path and the
	// default queue bounds; the WAL batches what piles up. Routing,
	// migration and transplant are one mode, switched by --data-root.
	// The ring's vnode count and the gossip and fallback-round cadences
	// are constants every member shares.
	for _, name := range []string{"unbatched", "flush-delay", "queue-frames", "queue-bytes", "fsync-linger", "route", "migrate", "transplant",
		"vnodes", "gossip-every", "watermark-every"} {
		cases = append(cases, flagCase{"retired " + name,
			[]string{"--node", "1", "--" + name + "=1"}, "flag provided but not defined: -" + name})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q, want it to contain %q", tc.args, err, tc.want)
			}
		})
	}
}
