# Build, vet, and test the whole reproduction. `make ci` is what the
# GitHub Actions workflow runs; the stdlib is the only dependency.

GO ?= go

.PHONY: all build vet test race bench benchgate bench-record chaos-smoke failover-smoke scaleout-smoke paxos-smoke storage-smoke storm-smoke fleet-smoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The headline experiment sweeps; each dlfmbench run prints a
# machine-readable `BENCH {...}` JSON line CI collects into bench.jsonl.
bench:
	$(GO) run ./cmd/dlfmbench throughput -clients 20 -ops 10
	$(GO) run ./cmd/dlfmbench fanout -ops 20
	$(GO) run ./cmd/dlfmbench traceoverhead -ops 20
	$(GO) run ./cmd/dlfmbench storage -ops 20
	$(GO) run ./cmd/dlfmbench storm -ops 100
	$(GO) run ./cmd/dlfmbench fleet -ops 25

# Compare the current bench.jsonl against the committed baseline AND the
# newest entry of the per-PR trajectory: gated counts (counters + histogram
# counts) may drift at most ±10%. Regenerate the baseline with
# `go run ./cmd/benchgate -current bench.jsonl -update`; record this PR's
# run in the trajectory with `make bench-record LABEL=pr7`.
benchgate:
	$(GO) run ./cmd/benchgate -baseline BENCH_baseline.json -current bench.jsonl -trajectory BENCH_trajectory.json

# Append the current bench.jsonl to the trajectory under LABEL (one entry
# per PR; re-running replaces the newest entry, older ones are history).
bench-record:
	$(GO) run ./cmd/benchgate -current bench.jsonl -trajectory BENCH_trajectory.json -append -label $(LABEL)

# Short fault-injection soak: seeded kill/drop schedule, indoubt drain,
# cross-system invariant check. Exits non-zero on any violation. The slow
# log (N slowest span trees of the soak) lands in slow.jsonl for CI to
# archive.
chaos-smoke:
	$(GO) run ./cmd/dlfmbench chaos -seed 1 -dur 5s -clients 20 -slow-out slow.jsonl

# Failover soak under the race detector: kill one primary for good mid-run,
# promote its log-shipping standby, fail host traffic over, drain indoubts,
# and check consistency — zero lost committed links or the run fails.
failover-smoke:
	$(GO) run -race ./cmd/dlfmbench failover -seed 1 -dur 5s -clients 20

# Scale-out smoke under the race detector: the E12 sweep at 1 -> 4 members
# (fixed load, per-member log device) plus one online drain of a member
# from a 4-member cluster while the chaos soak runs. Exits non-zero on any
# consistency violation or incomplete drain; the BENCH line lands in
# scaleout.jsonl for CI to archive.
scaleout-smoke:
	$(GO) run -race ./cmd/dlfmbench scaleout -seed 1 -dur 2s -clients 40 -members 1,2,4 | tee scaleout-output.txt
	grep '^BENCH ' scaleout-output.txt > scaleout.jsonl

# Commit-protocol smoke under the race detector: the E13 sweep — 2PC vs
# Paxos Commit with coordinator crashes injected at two rates, plus the
# fast-path latency legs (read-only vote, 1PC). Exits
# non-zero on any consistency violation, any wedged transaction under
# Paxos, or if 2PC fails to wedge (the crash schedule never fired); the
# BENCH line lands in commitproto.jsonl for CI to archive.
paxos-smoke:
	$(GO) run -race ./cmd/dlfmbench commitproto -seed 1 -dur 2s -clients 16 | tee commitproto-output.txt
	grep '^BENCH ' commitproto-output.txt > commitproto.jsonl

# Storage smoke under the race detector: the storage-layer unit tests (pool
# eviction, crash windows, tail replay) plus a short E14 run — group commit
# on/off at 1/8/32 committers with a modeled fsync, a bigger-than-RAM scan
# through a 16-frame pool, and restart with vs without a checkpoint. The
# BENCH line lands in storage.jsonl for CI to archive.
storage-smoke:
	$(GO) test -race ./internal/storage/ ./internal/wal/
	$(GO) run -race ./cmd/dlfmbench storage -ops 10 | tee storage-output.txt
	grep '^BENCH ' storage-output.txt > storage.jsonl

# Storm smoke under the race detector: the E15 open-loop storm at a reduced
# session count — calibrate saturation, then drive ~3x it with connection
# drops injected, admission shedding off then on. Exits non-zero on any
# consistency violation; the BENCH line (throughput, shed rate, p99, SLO
# verdicts) lands in storm.jsonl for CI to archive.
storm-smoke:
	$(GO) run -race ./cmd/dlfmbench storm -seed 1 -ops 15 | tee storm-output.txt
	grep '^BENCH ' storm-output.txt > storm.jsonl

# Fleet observability smoke under the race detector: the E16 localization
# experiment — three members, one with a 16x fsync latency injected, all
# scraped over per-member admin HTTP. Exits non-zero unless the health
# watchdog flags exactly the victim, the host router deprioritizes it, a
# slow transaction's stitched trace names the victim's WAL fsync as the
# dominant span, and every federated counter equals the sum of its
# per-member values. The BENCH line lands in fleet.jsonl for CI to archive.
fleet-smoke:
	$(GO) run -race ./cmd/dlfmbench fleet -seed 1 -ops 25 | tee fleet-output.txt
	grep '^BENCH ' fleet-output.txt > fleet.jsonl

ci: build vet race chaos-smoke failover-smoke scaleout-smoke paxos-smoke storage-smoke storm-smoke fleet-smoke
