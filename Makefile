.PHONY: install test check plancheck lint typecheck racecheck \
	wirecheck bench docs-codes examples reports reports-check clean \
	serve-smoke bench-serve

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# the dynamic analysis battery: sanitized LDBC differential across all
# three planners, corruption fixtures, estimate-audit checks
check:
	pytest tests/analysis/test_sanitizer.py tests/analysis/test_differential.py
	pytest benchmarks/test_microbench_engine.py -k "q1_plain or q1_sanitized" --benchmark-disable

# the plan-analysis battery: structure (S300), layout flow (S301-S306) and
# UDF shippability (P4xx) over the LDBC plans and the planted violation
# fixtures, liveness (S401-S403) and the planner's property demand (no
# plan carries a dead record), and the cost-bound/admission-control checks
plancheck:
	pytest tests/analysis/test_verifier.py tests/analysis/test_ldbc_plans.py \
		tests/analysis/test_flow.py tests/analysis/test_udfcheck.py \
		tests/analysis/test_flow_soundness.py tests/analysis/test_liveness.py \
		tests/analysis/test_planner_demand.py tests/analysis/test_prune.py \
		tests/analysis/test_costbound.py

lint:
	@command -v ruff >/dev/null 2>&1 || { \
		echo "error: ruff not installed — pip install -e '.[dev]'" >&2; \
		exit 1; }
	ruff check src tests

typecheck:
	@command -v mypy >/dev/null 2>&1 || { \
		echo "error: mypy not installed — pip install -e '.[dev]'" >&2; \
		exit 1; }
	mypy src/repro/analysis src/repro/dataflow src/repro/engine/embedding.py \
		src/repro/engine/columnar.py src/repro/engine/result.py \
		src/repro/engine/operators

# regenerate the diagnostic-code table in docs/analysis.md from the
# CODES registry (tests/analysis/test_docs_codes.py pins the two in sync)
docs-codes:
	python scripts/gen_code_docs.py

# the concurrency battery: static lock-discipline lint over our own
# source, then the server suite under the runtime lock-order witness,
# then the interleaving fuzzer's long (stress-marked) schedules
racecheck:
	python -m repro racecheck src/repro
	REPRO_LOCK_WITNESS=1 pytest tests/server tests/analysis/test_witness.py
	pytest -m stress tests/

# the wire-protocol battery: vocabulary drift between the pool and the
# worker runtime (W501-W505), exhaustive model checking of the
# cancel/done, spec-cache, ring and resident-eviction protocols
# (W506-W508), then the planted-defect fixtures and trace conformance
wirecheck:
	python -m repro wirecheck --verbose
	pytest tests/analysis/test_protocol.py tests/analysis/test_model.py \
		tests/analysis/test_wire_models.py

bench:
	pytest benchmarks/ --benchmark-only

# start `repro serve` as a subprocess, run a parameterized query over the
# wire, prepare/execute with two bindings, shut down cleanly — on the
# default (columnar) engine, on the reference path and through a two-worker
# pool, the three legs CI runs
serve-smoke:
	python scripts/serve_smoke.py
	python scripts/serve_smoke.py --no-columnar
	python scripts/serve_smoke.py --workers 2

# closed-loop concurrent load (8 clients, Q1-Q6) with differential
# verification, deadline and admission-control checks
bench-serve:
	python -m repro bench-serve --clients 8 --rounds 1 --scale-factor 0.02

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		python $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

reports: bench
	@echo "reports in benchmarks/_reports/"

# regenerate the paper's tables and figures and fail if any committed
# report changed: an engine change must not reprice the simulated cluster
reports-check: reports
	git diff --exit-code benchmarks/_reports

clean:
	rm -rf build dist *.egg-info src/*.egg-info benchmarks/_reports .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
