# Convenience targets for the ICGMM reproduction.
#
# The pytest configuration lives in pyproject.toml (pythonpath=src,
# importlib import mode), so plain `pytest` works too; the explicit
# PYTHONPATH below keeps the targets usable from any cwd and matches
# the tier-1 verify command in ROADMAP.md.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test verify bench-throughput bench-smoke bench-serving \
	bench-serving-smoke bench-fabric bench-fabric-smoke \
	bench-parallel bench-parallel-smoke bench-train \
	bench-train-smoke bench-chaos bench-chaos-smoke \
	bench-obs bench-obs-smoke bench-ingest bench-ingest-smoke

test:
	$(PYTHON) -m pytest -x -q

# Tier-1 tests plus every bench smoke validator (schema + acceptance
# checks on fresh smoke artifacts) -- the one-command CI gate.
verify: test bench-smoke bench-serving-smoke bench-fabric-smoke \
	bench-parallel-smoke bench-train-smoke bench-chaos-smoke \
	bench-obs-smoke bench-ingest-smoke

# Full simulator-throughput matrix; writes BENCH_sim_throughput.json.
bench-throughput:
	$(PYTHON) benchmarks/bench_sim_throughput.py

# Short trace + policy subset, then schema-validate the emitted JSON.
bench-smoke:
	$(PYTHON) benchmarks/bench_sim_throughput.py --smoke \
		--output BENCH_sim_throughput.smoke.json
	$(PYTHON) benchmarks/bench_sim_throughput.py \
		--validate BENCH_sim_throughput.smoke.json

# Full serving-under-drift bench; writes BENCH_serving_drift.json.
bench-serving:
	$(PYTHON) benchmarks/bench_serving_drift.py

# Short drift stream, then schema-validate (acceptance: >= 50% gap
# recovery, bit-exact sharded/single-shot parity, zero lost accesses,
# and an async on-path refresh stall <= 10% of the inline build).
bench-serving-smoke:
	$(PYTHON) benchmarks/bench_serving_drift.py --smoke \
		--output BENCH_serving_drift.smoke.json
	$(PYTHON) benchmarks/bench_serving_drift.py \
		--validate BENCH_serving_drift.smoke.json

# Full fabric-scaling matrix (scalar CXL router vs vectorized fabric);
# writes BENCH_fabric_scaling.json (acceptance: bit-exact per-device
# stats/pricing and >= 8x on the paper geometry).
bench-fabric:
	$(PYTHON) benchmarks/bench_fabric_scaling.py

# Short fabric run, then schema-validate the emitted JSON.
bench-fabric-smoke:
	$(PYTHON) benchmarks/bench_fabric_scaling.py --smoke \
		--output BENCH_fabric_scaling.smoke.json
	$(PYTHON) benchmarks/bench_fabric_scaling.py \
		--validate BENCH_fabric_scaling.smoke.json

# Full multicore fabric-replay matrix (1/2/4/8 workers x 1-8 devices;
# bit-exactness enforced everywhere, the >= 2.5x 4-worker speedup
# gate only on hosts with >= 4 CPUs); writes BENCH_parallel_scaling.json.
bench-parallel:
	$(PYTHON) benchmarks/bench_parallel_scaling.py

# Small worker/device matrix, then schema-validate the emitted JSON.
bench-parallel-smoke:
	$(PYTHON) benchmarks/bench_parallel_scaling.py --smoke \
		--output BENCH_parallel_scaling.smoke.json
	$(PYTHON) benchmarks/bench_parallel_scaling.py \
		--validate BENCH_parallel_scaling.smoke.json

# Full GMM training/refresh throughput matrix (reference vs fast fit,
# warm refresh vs from-scratch retrain; acceptance at the paper
# geometry: >= 4x fit, refresh >= 2x faster than the retrain while
# recovering >= 90% of the frozen engine's lost holdout likelihood,
# restart modes bit-identical); writes BENCH_train_throughput.json.
bench-train:
	$(PYTHON) benchmarks/bench_train_throughput.py

# Small fit/refresh pair, then schema-validate the emitted JSON.
bench-train-smoke:
	$(PYTHON) benchmarks/bench_train_throughput.py --smoke \
		--output BENCH_train_throughput.smoke.json
	$(PYTHON) benchmarks/bench_train_throughput.py \
		--validate BENCH_train_throughput.smoke.json

# Full chaos-recovery scorecard (all eight fault scenarios x monitor
# off/on x worker counts vs no-fault baselines; acceptance:
# deterministic timelines and monitor decisions, zero-loss failover,
# bounded post-recovery miss rate, transparent crash retries, and a
# monitor that strictly beats waiting on fail-slow while changing
# nothing elsewhere); writes BENCH_chaos_recovery.json.
bench-chaos:
	$(PYTHON) benchmarks/bench_chaos_recovery.py

# Short chaos stream over the same eight-scenario grid, then
# schema-validate the emitted JSON (CI uploads the payload as the
# resilience-scorecard artifact).
bench-chaos-smoke:
	$(PYTHON) benchmarks/bench_chaos_recovery.py --smoke \
		--output BENCH_chaos_recovery.smoke.json
	$(PYTHON) benchmarks/bench_chaos_recovery.py \
		--validate BENCH_chaos_recovery.smoke.json

# Full streaming-vs-materializing trace-ingest scorecard (per-mode
# subprocess peak-RSS deltas + checksum parity; acceptance: chunked
# CSV streaming stays within 25% of the materializing load's memory
# delta on the largest trace); writes BENCH_ingest_throughput.json.
bench-ingest:
	$(PYTHON) benchmarks/bench_ingest_throughput.py

# Small trace, then schema-validate the emitted JSON (the RSS gate is
# recorded but only enforced on full runs).
bench-ingest-smoke:
	$(PYTHON) benchmarks/bench_ingest_throughput.py --smoke \
		--output BENCH_ingest_throughput.smoke.json
	$(PYTHON) benchmarks/bench_ingest_throughput.py \
		--validate BENCH_ingest_throughput.smoke.json

# Full telemetry-overhead scorecard (enabled vs disabled replay per
# layer; acceptance: <= 5% hot-path overhead, byte-identical results
# with telemetry attached, bit-reproducible snapshot digests); writes
# BENCH_obs_overhead.json.
bench-obs:
	$(PYTHON) benchmarks/bench_obs_overhead.py

# Short telemetry-overhead run, then schema-validate the emitted JSON.
bench-obs-smoke:
	$(PYTHON) benchmarks/bench_obs_overhead.py --smoke \
		--output BENCH_obs_overhead.smoke.json
	$(PYTHON) benchmarks/bench_obs_overhead.py \
		--validate BENCH_obs_overhead.smoke.json
