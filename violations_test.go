package hope_test

import (
	"testing"
	"time"

	hope "github.com/hope-dist/hope"
	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
)

// violationRigs are the two ways an engine hosts its AID table: with no
// ring (what hope.System runs) and as the only member of a ring, where
// every adjudication is re-addressed to the node's router PID. A
// conflicting affirm/deny is the same user error on both.
var violationRigs = []struct {
	name string
	cfg  func() core.Config
}{
	{"ring=none", func() core.Config { return core.Config{} }},
	{"ring=one", func() core.Config {
		return core.Config{Routing: &core.RoutingConfig{
			Self:      1,
			NodeOf:    func(ids.PID) int { return 1 },
			RouterPID: func(int) ids.PID { return 1 << 40 },
			Owner:     func(ids.AID) (int, uint64, bool) { return 1, 1, true },
		}}
	}},
}

// TestViolationsCountUserErrors: conflicting affirm/deny — the paper's
// "user error" — is surfaced through the violations counter.
func TestViolationsCountUserErrors(t *testing.T) {
	for _, rig := range violationRigs {
		t.Run(rig.name, func(t *testing.T) {
			eng := core.NewEngine(rig.cfg())
			defer eng.Shutdown()

			x, _ := eng.NewAID()
			if _, err := eng.SpawnRoot(func(ctx *hope.Ctx) error {
				ctx.Affirm(x)
				return nil
			}); err != nil {
				t.Fatalf("spawn: %v", err)
			}
			if !eng.Settle(10 * time.Second) {
				t.Fatal("no settle")
			}
			if v := eng.Violations(); v != 0 {
				t.Fatalf("violations before conflict: %d", v)
			}
			if _, err := eng.SpawnRoot(func(ctx *hope.Ctx) error {
				ctx.Deny(x) // conflicts with the earlier affirm
				return nil
			}); err != nil {
				t.Fatalf("spawn denier: %v", err)
			}
			if !eng.Settle(10 * time.Second) {
				t.Fatal("no settle")
			}
			if v := eng.Violations(); v == 0 {
				t.Fatal("conflicting affirm/deny not counted as a violation")
			}
		})
	}
}

// TestViolationsZeroOnCleanRuns: ordinary optimistic programs never trip
// the counter.
func TestViolationsZeroOnCleanRuns(t *testing.T) {
	for _, rig := range violationRigs {
		t.Run(rig.name, func(t *testing.T) {
			eng := core.NewEngine(rig.cfg())
			defer eng.Shutdown()
			x, _ := eng.NewAID()
			y, _ := eng.NewAID()
			if _, err := eng.SpawnRoot(func(ctx *hope.Ctx) error {
				ctx.Guess(x)
				ctx.Guess(y)
				return nil
			}); err != nil {
				t.Fatalf("spawn: %v", err)
			}
			if _, err := eng.SpawnRoot(func(ctx *hope.Ctx) error {
				ctx.Affirm(x)
				ctx.Deny(y)
				return nil
			}); err != nil {
				t.Fatalf("spawn decider: %v", err)
			}
			if !eng.Settle(10 * time.Second) {
				t.Fatal("no settle")
			}
			if v := eng.Violations(); v != 0 {
				t.Fatalf("clean run produced %d violations", v)
			}
		})
	}
}
