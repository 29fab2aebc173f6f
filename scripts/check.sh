#!/bin/sh
# check.sh — the tier-1 gate plus the race-sensitive packages.
# Run from the repository root (or via `make check`).
set -eu

echo '== go vet ./...'
go vet ./...

echo '== gofmt -l .'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "check: files not gofmt-clean:"
    printf '%s\n' "$unformatted"
    exit 1
fi

echo '== go build ./...'
go build ./...

# The chaos smokes below run hoped and hopebench as built here, once,
# instead of one `go run` (and one hoped build) per stanza.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/hoped" ./cmd/hoped
go build -o "$tmp/hopebench" ./cmd/hopebench

echo '== gob stays off the message path (internal/wire: one fallback encoder, one old-bytes decoder)'
# The wire codec's binary payload form (DESIGN.md §7) exists because a
# per-message gob encoder/decoder compiles a type engine per frame. gob
# survives in internal/wire as exactly two call sites, both in codec.go;
# a third anywhere in the package (tests included) fails the gate.
sites=$(grep -rn --include='*.go' -e 'gob\.NewEncoder' -e 'gob\.NewDecoder' internal/wire || true)
if [ "$(printf '%s\n' "$sites" | grep -c 'internal/wire/codec\.go:')" -ne 2 ] ||
   [ "$(printf '%s\n' "$sites" | grep -c .)" -ne 2 ]; then
    echo "check: gob encoder/decoder sites in internal/wire changed (want 1 + 1, in codec.go):"
    printf '%s\n' "$sites"
    exit 1
fi

echo '== hopebench e3 e11 (paper experiments that fail on a wrong answer)'
# E3 exits non-zero when Algorithm 2 leaves a speculative-affirm ring
# unsettled or the Algorithm 1 control settles it; E11 when a
# transaction run loses an update. E8 and E10 fail on a wrong answer too
# but are kept out while their known coins (ROADMAP 15(b)) still land.
"$tmp/hopebench" e3 e11

echo '== go test ./...'
go test ./...

echo '== go test -shuffle=on (root package: order-independent chaos/e2e suite)'
go test -shuffle=on -count=1 .

echo '== go test -race (core, netsim, wire, wal, durable, faultwire, oracle, harness, cluster, stability)'
go test -race -count=1 ./internal/core/ ./internal/netsim/ ./internal/wire/ ./internal/wal/ ./internal/durable/ ./internal/faultwire/ ./internal/oracle/ ./internal/harness/ ./internal/cluster/ ./internal/stability/

echo '== premature-commit window regression (pinned seeds, repeated under race)'
# The §4.9 divergence must stay observable with the watermark off and
# repaired with it on, across scheduler interleavings: fixed seeds, CPU
# load, three repetitions under the race detector (DESIGN.md §12).
go test -race -count=3 -run TestPrematureCommitWindow ./internal/stability/

echo '== rounds on demand + exact quiescence (repeated under race)'
# Rounds start when a member settles with uncovered work (pkWant from a
# non-initiator), a non-quiet sweep one ends the round with no sweep-two
# frame, a busy node starts at most one round per signal or tick (also
# under a closed loop of gated jobs between two engines), and a
# report reads Delivered before Quiet before Sent (DESIGN.md §12).
# Engine.Quiet must see a frame at a completed process, a rolled-back
# process awaiting re-execution and data queued for a Recv-blocked
# process, without visiting completed processes.
go test -race -count=3 -run 'TestReportOrderHole|TestRoundsOnDemand|TestSweepOneEndsRound|TestBusyNodeDoesNotSpin|TestDemandRoundsUnderLoad|TestCodecRoundTrip|TestQuiet' \
    ./internal/stability/ ./internal/core/

echo '== wire + wal + cluster + durable + interval fuzz corpus replay'
# Replays the seed corpora plus any regression inputs under testdata/fuzz
# without fuzzing (no -fuzz flag): cheap, deterministic, catches codec,
# frame-reader, header-peek (FuzzPeekHeader: the durable fold classifies
# retained frames by it), WAL-record, and view-codec regressions pinned
# by past crashes. internal/durable is on the line so a fuzz target added
# there replays from its first day (today its recorded-WAL differential,
# TestDifferentialFold, runs with the ordinary tests above). The
# internal/interval corpus pins Control's set invariants (FuzzApplyReplace).
go test -run 'Fuzz' -count=1 ./internal/wire/ ./internal/wal/ ./internal/cluster/ ./internal/durable/ ./internal/interval/

echo '== crash-restart smoke'
# SIGKILLs a durable hoped child mid-workload and restarts it from its
# WAL; fails if recovery loses, duplicates, or reorders a committed
# print. The Checkpointed variant reruns it with a cadence hot enough
# that the SIGKILL can land mid-bracket.
go test -run 'TestCrashRestartRecovery|TestRestartCleanShutdown' -count=1 ./cmd/hoped/

echo '== chaos storm smoke (pinned seed)'
# Two durable nodes behind fault proxies, a seeded plan with severs,
# partitions, armed corruption, and one SIGKILL+restart; fails on any
# oracle violation. The seed pins the fault schedule, so a failure here
# reproduces with the same command.
"$tmp/hopebench" chaos --hoped "$tmp/hoped" --nodes 2 --seed 7 --span 1s --reports 24

echo '== permanent-death chaos smoke (pinned seed)'
# Same storm shape, but the victim is never restarted: the failure
# detector must declare it dead, drop its queue, and the speculation
# leases must auto-deny whatever it stranded. Hangs (then fails on the
# quiescence deadline), rather than fails fast, if the liveness layer
# regresses — that hang IS the bug being guarded against.
"$tmp/hopebench" chaos --hoped "$tmp/hoped" --nodes 2 --seed 10 --span 1s --reports 24 --perm-kill

echo '== membership churn smoke (pinned seed)'
# A 3-node dynamic cluster bootstrapped from one seed node loses a
# member to SIGKILL mid-speculation and absorbs a replacement: the
# survivors' views must converge on the death, the orphaned assumptions
# must be auto-denied, and the sharded-ownership invariant must hold
# over the final views (agreed live set, agreed ring, live owners).
"$tmp/hopebench" chaos --hoped "$tmp/hoped" --churn --nodes 3 --seed 3 --reports 24

echo '== watermark churn smoke (pinned seed)'
# The same churn storm with every member running --watermark: stability
# rounds are blocked while the corpse sits unevicted (it answers no
# sweep and its in-flight frames fail the drain check), so the storm
# additionally asserts every final member — the late joiner included —
# announces an agreed HOPED STABLE frontier at the final view epoch.
"$tmp/hopebench" chaos --hoped "$tmp/hoped" --churn --nodes 3 --seed 3 --reports 24 --watermark

echo '== migration battery (pinned seeds, repeated under race)'
# Ownership routing + live shard migration (DESIGN.md §13): the ring
# movement property, the gated-transport migration race (stale-epoch
# NACK, retry, adopt), the adopted-not-denied grant-epoch rule, and the
# stale-rollback reach-through that the migration storm forced. Fixed
# seeds, three repetitions under the race detector.
go test -race -count=3 -run 'TestRingMovement|TestMigration|TestStaleRollback' \
    ./internal/cluster/ ./internal/core/

echo '== AID table (repeated under race)'
# Every engine hosts its assumptions' machines in one table stepped by one
# goroutine under one lock (DESIGN.md §2, §13): no goroutine per AID,
# collection reads the table without a message, a conflicting
# affirm/deny is a violation with or without a ring — except the Affirm
# of an already-retracted interval that a NACK retry delivers late, and
# a lease deny that reaches an already affirmed owner — and a durable
# restart reinstalls the AIDs it minted, adjudicated or not. The root
# package is not raced anywhere else; three repetitions under the race
# detector.
go test -race -count=3 -run 'TestAIDsCostNoGoroutine|TestCollect|TestGuessAfterCollect|TestViolations|TestRestartRestoresMintedAIDs|TestRetriedAffirm|TestLeaseDeny' . ./internal/core/

echo '== serving-path AID reclamation (gated, repeated under race)'
# Without a ring the AID table drops a machine once its verdict is final
# and its fan-out and export are out, and answers late traffic from the
# verdict (DESIGN.md §4 item 10): every (verdict, message) pair answers as
# the live machine, late Guess/CutProbe frames get Replace/CutAck/Rollback
# with no dead letter, a lease deny of a reclaimed True goes to the table
# and is dropped, a revocable True stays hosted, and a durable restart
# re-announces then reclaims. Three repetitions under the race detector.
go test -race -count=3 -run 'TestReclaimedVerdictAnswersAsLiveMachine|TestLateFramesMeetReclaimedVerdicts|TestAutoDenyOfReclaimedTrueIsDropped|TestRevocableTrueStaysHosted|TestRestartReclaimsDecidedAIDs' \
    . ./internal/core/

echo '== cycle-cut confirmation (gated, repeated under race)'
# When a UDO hit costs a CutProbe round trip (DESIGN.md §4.9): none when
# the interval saw the member affirmed and True is absorbing; one with the
# watermark on, or when the member left through a conditional affirm; and
# a Revive clears what the interval saw. Gated on interval state, not
# timed; three repetitions under the race detector.
go test -race -count=3 -run 'TestCut|TestReviveClearsAffirmed' ./internal/core/

echo '== transplant battery (pinned seeds, repeated under race)'
# Process transplant (DESIGN.md §13): deterministic replay of a dead
# node's user processes from its WAL; a survivor's read of the corpse
# stopping at the first damage, as the corpse's restart would
# (TestCorpseReadStopsAtDamage); the hand-off committed snapshot first,
# mapping last, so no WAL cut recovers a mapping without its snapshot
# (TestTransplantHandOffCommitsLast); the first-mapping-wins twin
# fence, parked-frame translation, the out-of-band channel contract
# the announcements ride (one row per channel, drop-oldest included),
# and the wire handshake's watermark-mode rejection. A peer declared
# dead before it was ever addressed hands its first send back instead
# of queueing it toward the corpse (TestDeclaredDeadBeforeFirstSend).
# The addressing step re-addresses copies only: a rollback past a
# translated send replays cleanly, and no path (ring redirect, park and
# flush, NACK retry and Batch, translation, dead-frame hand-back) writes
# a message its sender holds (DESIGN.md §4 item 14). Three repetitions
# under the race detector.
go test -race -count=3 -run 'TestTransplant|TestProcExtract|TestCorpseReadStopsAtDamage|TestDeclaredDeadBeforeFirstSend|TestOutOfBandChannels|TestWatermarkMode|TestRetryQueue|TestRollbackPastTranslatedSend|TestSentMessageIsNeverRewritten' \
    ./internal/core/ ./internal/durable/ ./internal/wire/

echo '== process reaping (repeated under race)'
# A finished process leaves the engine (DESIGN.md §4 item 11): later
# frames to its PID get the live verdicts from the tombstone, with the
# watermark it stays until the frontier covers it, its goroutines exit,
# every frame racing the mailbox close reaches the tombstone, and the
# PID allocator never re-issues a PID. Three repetitions under the race
# detector.
go test -race -count=3 -run 'TestReap|TestRetireHandsEveryFrameOn|TestAllocPIDNeverReissues' \
    ./internal/core/ ./internal/vpm/

echo '== survival churn smoke (pinned seed)'
# The churn storm with every member on hoped --data-root (DESIGN.md §13):
# adjudication goes through the ring owners; the SIGKILLed member's
# hosted machines must be adopted (not denied) by its ring successors
# from its WAL (at least one in total), and the hosted tables must
# partition by the final ring (oracle.CheckMigration); its user
# processes must be reborn by deterministic replay on the
# ring-designated survivors (oracle.CheckTransplant — every corpse
# process adopted exactly once, at its ring owner); every survivor's
# page layout must match the no-churn control — a lost or double-applied
# adjudication shows up as a divergent layout; and the doomed workload
# must COMPLETE against the reborn server with exactly one final
# outcome instead of quiescing by denial.
"$tmp/hopebench" chaos --hoped "$tmp/hoped" --churn --survive --nodes 3 --seed 1 --reports 24

echo '== survival churn smoke, second pinned seed'
# The seed that exposed a sent message rewritten after its sender had
# journalled it: a rollback past a transplant-translated send replayed
# send(to=<old PID>) against an entry reading the new PID ("journal:
# replay divergence"). Re-addressing now sends a copy (DESIGN.md §4
# item 14).
"$tmp/hopebench" chaos --hoped "$tmp/hoped" --churn --survive --nodes 3 --seed 2 --reports 24

echo '== survival + watermark churn smoke (pinned seed)'
# The same survival storm with every member also on --watermark
# (DESIGN.md §12, §13): adoption and transplant run under gated
# outputs, and on top of the survival assertions every final member
# must announce an agreed HOPED STABLE frontier at the final view epoch.
"$tmp/hopebench" chaos --hoped "$tmp/hoped" --churn --survive --watermark --nodes 3 --seed 1 --reports 24

echo 'check: OK'
