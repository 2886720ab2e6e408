# Development workflow for the Streaming Balanced Clustering reproduction.

PYTHON ?= python

.PHONY: install test test-verbose bench bench-smoke bench-tenants \
	bench-tenants-smoke chaos-smoke fleet-smoke perfbench-smoke perfbench-test \
	examples artifacts lint lint-json clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

test-verbose:
	$(PYTHON) -m pytest tests/ -v

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Quick serial-vs-parallel ingest check (2 workers) plus latency
# percentiles; appends to BENCH_service.json and fails if the parallel
# backend's state diverges from the serial one.
bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service_throughput.py --smoke

# Multi-tenant throughput + isolation under eviction churn.  Skipped on
# 1-core runners: the concurrent drivers just time-slice one CPU there and
# the throughput numbers mean nothing.
bench-tenants:
	@if [ "$$(nproc 2>/dev/null || echo 1)" -lt 2 ]; then \
		echo "bench-tenants: skipped (needs >= 2 cores, have $$(nproc 2>/dev/null || echo 1))"; \
	else \
		PYTHONPATH=src $(PYTHON) benchmarks/bench_service_tenants.py; \
	fi

# CI async-service smoke: boot `python -m repro serve` in a subprocess,
# drive 3 tenants concurrently, assert isolation, shut down over the wire.
bench-tenants-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service_tenants.py --smoke

# CI chaos smoke: boot `python -m repro serve --fault-plan ...` in a
# subprocess, kill workers / reset connections / fail a checkpoint write
# mid-run, and require the final state bit-identical to a fault-free
# reference (see benchmarks/bench_service_chaos.py).
chaos-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service_chaos.py --smoke

# CI fleet smoke: boot a real coordinator fleet — 2 `repro serve` site
# subprocesses fed over TCP — SIGKILL site 1 mid-run, recover it from its
# checkpoint + journal replay, and require the coordinator's merged state
# bit-identical to a single-process reference with wire bits matching the
# in-process E7 simulation (see benchmarks/bench_fleet.py).
fleet-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fleet.py --smoke

# CI service-benchmark smoke: a 2-second run of each workload declared in
# BENCHMARK.json through a real `repro serve` subprocess; fails when a run
# exits non-zero, i.e. when its correctness gate (answers and pulled
# states equal to an in-process reference replay) does not pass.
PERFBENCH_WORKLOADS = window-ingest fresh-query tenant-churn

perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "== perfbench $$w"; \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done

# The service benchmark's own self-tests (load generator, span wrappers
# and self-time arithmetic, the BENCHMARK.json contract, a tiny run of
# every workload); tier-1 collects only tests/.
perfbench-test:
	$(PYTHON) -m pytest perfbench/test_perfbench.py -q

# Run every example script end to end; one that exits non-zero fails the target.
examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

# Generic style (ruff) + project invariants (repro lint: DET/HOT/ASYNC/WIRE;
# see docs/LINTING.md).  `repro.analysis_lint` is the same command as
# `repro lint` but never imports numpy, so it runs in minimal environments.
lint:
	@$(PYTHON) -m ruff --version >/dev/null 2>&1 || \
		{ echo "ruff is not installed; run: pip install ruff"; exit 1; }
	$(PYTHON) -m ruff check src tests benchmarks examples
	PYTHONPATH=src $(PYTHON) -m repro.analysis_lint src tests benchmarks examples

# Machine-readable finding list (schema v1) — what CI attaches as annotations.
lint-json:
	PYTHONPATH=src $(PYTHON) -m repro.analysis_lint src tests benchmarks examples --format json

artifacts:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
