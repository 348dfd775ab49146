PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench tier1 lint batch-parallel-smoke perf clean

test:
	$(PYTHON) -m pytest tests/ -q

bench:
	$(PYTHON) -m pytest benchmarks/ -q

tier1:
	$(PYTHON) -m pytest -x -q

# Mirror of the CI batch-parallel-smoke job: drive the real CLI with
# --processes 2 vs --processes 1 and require identical reports and
# deterministic profile counter sections.
batch-parallel-smoke:
	$(PYTHON) tools/parallel_smoke.py

# Informational, not a gate: the two workloads BENCHMARK.json gates, untraced,
# then the traced regrade-2p run with its per-layer ledger. Each run is
# 20 s (BENCHMARK.json's run_seconds) plus set-up.
perf:
	$(PYTHON) perfbench/run.py --workload regrade-2p --seed 1 --seconds 20 --trace 0
	$(PYTHON) perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0
	$(PYTHON) perfbench/run.py --workload regrade-2p --seed 1 --seconds 20 --trace 1

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples tools
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples tools; \
	else \
		echo "ruff not installed; bytecode compile check only (CI runs ruff)"; \
	fi

clean:
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks
