# Convenience targets; all real build logic lives in dune.

.PHONY: all check build test bench bench-json bench-e1 bench-c2 bench-c3 bench-c4 bench-p1 bench-serve bench-diff bench-baseline chaos serve-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

# Tier-1 verification: everything must build and every test must pass.
check:
	dune build && dune runtest

bench:
	dune exec bench/main.exe

# Quick machine-readable benchmark sidecars (BENCH_e1.json, BENCH_e9.json,
# BENCH_e10.json) for the headline lp and heavy-hitters experiments.
# See docs/OBSERVABILITY.md for the schema.
bench-json:
	dune exec bench/main.exe -- --quick e1 e9 e10

# E1 pair in quick mode: Algorithm 1 vs the one-round baselines, then the
# batched engine's shared-exchange savings and a held-plan hit at one seed
# (writes BENCH_e1.json; see docs/API.md).
bench-e1:
	dune exec bench/main.exe -- --quick --no-micro e1

# Crash-recovery experiment: bits saved by journal resume vs rerun as the
# crash position sweeps the transcript (writes BENCH_c2.json).
bench-c2:
	dune exec bench/main.exe -- --no-micro c2

# Fleet chaos experiment: bits/rounds vs fleet size, resume-vs-rerun
# recovery cost for crashed and straggling workers, and the quorum
# degradation ladder (writes BENCH_c3.json; see docs/ROBUSTNESS.md).
bench-c3:
	dune exec bench/main.exe -- --quick --no-micro c3

bench-c4:
	dune exec bench/main.exe -- --quick --no-micro c4

# Plan/apply kernel throughput: seed vs planned sketch builds for every
# family, plus the domain-pool fan-out rate (writes BENCH_p1.json; see
# docs/PERFORMANCE.md).
bench-p1:
	dune exec bench/main.exe -- --no-micro p1

# Serve daemon under load: an in-process daemon faces the closed-loop
# load generator — 16 connections x 8 batches x 16 queries, all pipelined
# before any reads, so >= 1000 queries are measured simultaneously
# in flight. Writes BENCH_s1.json (deterministic digest/bits gated by
# bench-diff; qps and latency percentiles ride along as timing fields).
# See docs/SERVING.md.
bench-serve:
	dune exec bench/main.exe -- --no-micro s1

# Regression gate: rerun the quick bench tier and diff the sidecars
# against the committed baselines (bench/baselines/). Deterministic
# metrics (bits, rounds, counts, errors) must match exactly; timing
# fields are ignored. Exits non-zero on drift — this is what CI runs.
# See docs/OBSERVABILITY.md.
bench-diff:
	dune exec bench/main.exe -- --quick --no-micro e1 c1 c2 c3 c4 p1 s1
	dune exec bench/diff.exe -- --baselines bench/baselines

# Refresh the committed baselines after an INTENDED cost change. Review
# the diff of bench/baselines/ in the same PR as the change it blesses.
bench-baseline:
	dune exec bench/main.exe -- --quick --no-micro e1 c1 c2 c3 c4 p1 s1
	cp BENCH_e1.json BENCH_c1.json BENCH_c2.json BENCH_c3.json BENCH_c4.json BENCH_p1.json BENCH_s1.json bench/baselines/

# Chaos sweep: fault injection (link faults and crashes) over every
# protocol (see docs/ROBUSTNESS.md) plus the C1 retransmission-cost and
# C2 crash-recovery experiments, on a fixed seed matrix.
chaos:
	MATPROD_CHAOS_SEEDS=1,2,3,4,5 dune exec test/test_faults.exe
	dune exec bench/main.exe -- --quick --no-micro c1 c2

# End-to-end daemon smoke: a real `matprod serve` process on a fixed
# port, a loadgen burst against it, then a clean SIGTERM drain (the
# loadgen client retries ECONNREFUSED while the daemon boots, so no
# sleep is needed). This is what CI's serve-smoke job runs.
serve-smoke:
	dune build bin/matprod.exe
	./_build/default/bin/matprod.exe serve --port 7453 & \
	pid=$$!; \
	./_build/default/bin/matprod.exe loadgen --port 7453 \
	  --connections 8 --batches 4 --queries 8; \
	status=$$?; \
	kill -TERM $$pid; \
	wait $$pid && exit $$status

clean:
	dune clean
	rm -f BENCH_*.json
