# Convenience targets for the ICGMM reproduction.
#
# The pytest configuration lives in pyproject.toml (pythonpath=src,
# importlib import mode), so plain `pytest` works too; the explicit
# PYTHONPATH below keeps the targets usable from any cwd and matches
# the tier-1 verify command in ROADMAP.md.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test perfbench-test bench-collect verify bench-validate \
	bench-obs bench-obs-smoke

test:
	$(PYTHON) -m pytest -x -q

# The repository benchmark's own tests (perfbench/, outside tier-1).
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

# The paper-figure and ablation benches (benchmarks/bench_*.py, run
# on demand) must at least import and collect; the Table 2 bench
# (~2 s) also runs, so a missing pytest-benchmark `benchmark` fixture
# fails here rather than only when a bench runs, and so does the
# temporal-dimension ablation (~4 s), the one caller that fits with
# more than one EM restart (n_init=3).
bench-collect:
	$(PYTHON) -m pytest benchmarks/bench_*.py --collect-only -q
	$(PYTHON) -m pytest benchmarks/bench_table2_resources.py \
		benchmarks/bench_ablation_temporal_dimension.py -q

# Tier-1 tests, the benchmark's tests, the paper benches' collection,
# the telemetry-overhead smoke validator, plus the validator over its
# committed full record -- the one-command CI gate.
verify: test perfbench-test bench-collect bench-obs-smoke \
	bench-validate

BENCH_RECORDS := obs_overhead

bench-validate:
	@set -e; for name in $(BENCH_RECORDS); do \
		echo "validate BENCH_$$name.json"; \
		$(PYTHON) benchmarks/bench_$$name.py --validate BENCH_$$name.json; \
	done

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
