package core

import "github.com/hope-dist/hope/internal/ids"

// This file implements assumption garbage collection — the paper's §5.2
// remark that "reference counting can garbage collect old AID processes".
//
// Instead of reference counts (which would require tracking every AID
// value held by user code), collection archives: at a quiescent point,
// every machine in the engine's AID table whose assumption has reached a
// final state is dropped and its verdict recorded in the engine. Future
// guesses of an archived assumption are answered locally — True behaves
// like the Replace-with-null its machine would have sent, False like its
// Rollback — so archiving is observationally equivalent while the table
// entry is reclaimed. The table is read directly: collection sends
// nothing.

// Collect reclaims the table entries of assumptions that have reached a
// final state, archiving their verdicts. Call it at a quiescent point
// (after a successful Settle): collecting while control traffic is in
// flight could strand a registration mid-protocol.
//
// It returns the number of assumptions reclaimed; the error is always nil.
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
