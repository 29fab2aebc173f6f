.PHONY: check build test race bench perf chaos

# The tier-1 gate: vet, build, full test suite, and the race detector
# on the concurrency-heavy packages.
check:
	sh scripts/check.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race -count=1 ./internal/core/ ./internal/netsim/ ./internal/wire/ ./internal/wal/ ./internal/durable/ ./internal/faultwire/ ./internal/oracle/ ./internal/harness/ ./internal/cluster/ ./internal/stability/

# Go micro-benchmarks of the root package (not the repo's benchmark).
bench:
	go test -bench=. -benchmem

# The repo's benchmark (BENCHMARK.json): five closed-loop workloads over
# two real nodes, every metric printed by name. See perf/README.md.
perf:
	bash perf/run.sh

# Multi-node chaos storm: durable hoped processes behind fault-injecting
# proxies, seeded severs/partitions/corruption plus one SIGKILL+restart,
# checked against the invariant oracle. Replay any failure with --seed.
# The second storm kills its victim permanently — no restart — and only
# terminates if the liveness layer (failure detector + speculation
# leases) resolves everything the dead node stranded.
# The third storm is membership churn: a dynamic 3-node cluster loses a
# member to SIGKILL mid-speculation and absorbs a replacement, with the
# sharded-ownership invariant checked over the survivors' final views.
# The fourth adds --survive (every member on hoped --data-root):
# adjudication routes through the ring owners, and the dead member's
# shard and processes must be adopted from its WAL by the ring
# successors, not denied (DESIGN.md §13).
chaos:
	go run ./cmd/hopebench chaos --nodes 3 --seed 42
	go run ./cmd/hopebench chaos --nodes 2 --seed 10 --span 1s --reports 24 --perm-kill
	go run ./cmd/hopebench chaos --churn --nodes 3 --seed 3
	go run ./cmd/hopebench chaos --churn --survive --nodes 3 --seed 1 --reports 24
