# Developer entry points. Everything runs from the source tree via
# PYTHONPATH=src — no install step required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-service chaos bench bench-smoke bench-e2e perfbench-selftest bench-trace bench-dump bench-platforms bench-service bench-service-resilience bench-chaos lint docs-check ci all

all: test docs-check

test:
	$(PYTHON) -m pytest -x -q

# Just the prediction-service layer: engine/LRU/serve unit tests, the
# one-shot equivalence suite, the fault-injection suite, the wire
# byte-identity oracle, and the serving chaos suite (deadlines,
# backpressure, breaker, kill+restart-from-snapshot byte identity).
test-service:
	$(PYTHON) -m pytest tests/test_service.py tests/test_service_equivalence.py tests/test_service_faults.py tests/test_service_wire.py tests/test_service_chaos.py -q

# The chaos suite with injection armed and the runtime sanitizer on:
# fault-policy retries, supervised-pool recovery (kills, hangs, poison
# cases), store crash consistency on both layouts (single file and
# shard directory) and the store-corruption suite, the two-process
# shared sweep, and the serving-side gate (deadlines, backpressure,
# breaker, kill+restart-from-snapshot bit-identity) — plus the executor
# unit tests to prove supervision does not regress the clean path.
chaos:
	REPRO_FAULTS=1 REPRO_SANITIZE=1 $(PYTHON) -m pytest tests/test_chaos.py tests/test_faults.py tests/test_campaign_executor.py tests/test_service_chaos.py tests/test_service_faults.py -q

bench:
	$(PYTHON) -m pytest benchmarks -q -o python_files='bench_*.py'

# The end-to-end benchmark declared in BENCHMARK.json: each of the four
# user-facing runs (solver engine, campaign sweep, repro-model path,
# serving replay) for 20 s; the last stdout line of each run is its
# JSON result with the end-to-end metrics.
bench-e2e:
	for w in solver_sedov sweep_table3 model_longrun serve_mixed; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

# Toy-size self-test of the end-to-end benchmark harness (~30 s): every
# workload plain and traced, checked against its output contract.
perfbench-selftest:
	python3 perfbench/selftest.py

# Full-size run of the trace substrate bench (columnar vs event-list
# aggregations at 10^4-10^6 records, the >=10x aggregation floor at
# 10^6 and per-record append parity); writes BENCH_trace.json.
bench-trace:
	$(PYTHON) -m pytest benchmarks/bench_trace_columnar.py -q -o python_files='bench_*.py'

# Full-size run of the batched dump-pipeline bench (plan-cached dumps and
# vectorized inspect vs the seed per-fab loops at fig-11 scale, paired
# CPU-time rounds); asserts the >=5x dump and >=2x inspect floors, writes
# BENCH_dump.json.
bench-dump:
	$(PYTHON) -m pytest benchmarks/bench_dump_pipeline.py -q -o python_files='bench_*.py'

# Full-size run of the cross-machine burst-throughput bench (batched
# burst_time vs the per-file loop on every registered platform at the
# Table-III max job shape); asserts the >=5x floor and writes
# BENCH_platforms.json.
bench-platforms:
	$(PYTHON) -m pytest benchmarks/bench_platforms.py -q -o python_files='bench_*.py'

# Full-size run of the prediction-service load bench (10^5 batched
# requests: cold vs warm LRU vs per-call predict_sizes, plus
# lookup_many against a warm store); asserts the >=5x warm-path floor
# and writes BENCH_service.json.
bench-service:
	$(PYTHON) -m pytest benchmarks/bench_service.py -q -o python_files='bench_*.py'

# Full-size run of the serving-resilience bench (deadline/breaker
# bookkeeping on the warm 10^5-request load vs the plain path, plus a
# snapshot save/restore cycle); asserts the <=5% overhead ceiling and
# writes BENCH_service_resilience.json.
bench-service-resilience:
	$(PYTHON) -m pytest benchmarks/bench_service_resilience.py -q -o python_files='bench_*.py'

# Full-size run of the resilience bench (supervised-executor overhead
# with injection off, and the 200-case two-process chaos gate: 20%
# transients, two worker kills, one torn store write); asserts the <=5%
# overhead ceiling and writes BENCH_resilience.json.
bench-chaos:
	$(PYTHON) -m pytest benchmarks/bench_chaos.py -q -o python_files='bench_*.py'

# Tiny-size run of every bench (REPRO_BENCH_SMOKE=1), asserting each
# emits its artifact — bench-harness regressions without the bench cost.
bench-smoke:
	$(PYTHON) tools/bench_smoke.py

# repro-lint: the project's AST invariant checker (rule catalog in
# docs/LINT.md).  Exits nonzero on any unsuppressed finding.
lint:
	$(PYTHON) -m tools.lint src tests benchmarks tools

docs-check:
	$(PYTHON) tools/docs_check.py README.md docs/ARCHITECTURE.md docs/CAMPAIGN.md docs/PLATFORMS.md docs/SERVICE.md docs/LINT.md docs/RESILIENCE.md

# The one-stop regression gate: tests + lint + docs + bench harnesses.
ci: test lint docs-check bench-smoke perfbench-selftest
