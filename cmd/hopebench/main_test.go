package main

import (
	"strings"
	"testing"
)

func TestUnknownExperimentRejected(t *testing.T) {
	err := run([]string{"e99"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), "e99") {
		t.Fatalf("error %q does not name the bad argument", err)
	}
}

func TestSingleExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full sweep")
	}
	if err := run([]string{"e5"}); err != nil {
		t.Fatalf("e5: %v", err)
	}
}

// TestChaosRefusesOtherStormsFlags checks that each storm refuses a flag
// only the other storm reads, even when it is given its default value.
// Every row is refused before a process is spawned: the fault-storm rows
// carry --plan and the churn rows an explicit --hoped and --nodes 1,
// which the churn storm refuses before launching anything.
func TestChaosRefusesOtherStormsFlags(t *testing.T) {
	churn := []string{"chaos", "--churn", "--nodes", "1", "--hoped", "/nonexistent/hoped"}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"plan", append(churn, "--plan")},
		{"span", append(churn, "--span", "2s")},
		{"kill", append(churn, "--kill")},
		{"perm-kill", append(churn, "--perm-kill=false")},
		{"json", []string{"chaos", "--plan", "--json", "out.json"}},
		{"watermark", []string{"chaos", "--plan", "--watermark"}},
		{"survive", []string{"chaos", "--plan", "--survive=false"}},
	} {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), "--"+c.flag) {
			t.Errorf("%v: error %v, want one naming --%s", c.args, err, c.flag)
		}
	}
	// Retired: the churn storm's ring, death threshold and fsync policy
	// are constants.
	for _, name := range []string{"vnodes", "dead-after", "fsync"} {
		args := append(churn, "--"+name+"=1")
		if err := run(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("%v: error %v, want the flag undefined", args, err)
		}
	}
}
