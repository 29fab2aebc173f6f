package core

import "github.com/hope-dist/hope/internal/ids"

// This file implements assumption garbage collection — the paper's §5.2
// remark that "reference counting can garbage collect old AID processes".
//
// Instead of reference counts (which would require tracking every AID
// value held by user code), reclamation goes by verdict. The AID table
// drops most decided machines as it serves and keeps their verdicts
// (route.go; DESIGN.md §4 item 10). Collection archives: at a quiescent
// point, those verdicts and every final machine still hosted move into
// the engine. Future guesses of an archived assumption are answered
// locally — True behaves like the Replace-with-null its machine would
// have sent, False like its Rollback — so archiving is observationally
// equivalent. The table is read directly: collection sends nothing.

// Collect archives the verdicts of assumptions that have reached a final
// state, reclaimed or still hosted, and detaches their PIDs. Call it at a
// quiescent point (after a successful Settle): collecting while control
// traffic is in flight could strand a registration mid-protocol.
//
// It returns the number of assumptions archived; the error is always nil.
func (e *Engine) Collect() (int, error) {
	return e.router.collect(), nil
}

// Archived reports whether x has been collected, and its final verdict.
func (e *Engine) Archived(x ids.AID) (verdict, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.archive[x]
	return v, ok
}

// archiveInvalidates reports whether any tag member is an archived-false
// assumption — such a message is causally invalid, exactly like one
// tagged with a locally known denied AID.
func (e *Engine) archiveInvalidates(tags []ids.AID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range tags {
		if v, ok := e.archive[a]; ok && !v {
			return true
		}
	}
	return false
}
