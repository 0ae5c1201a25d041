# Convenience targets for the Cactis reproduction.

.PHONY: install test bench bench-recovery bench-server examples results ci lint-schema lint-src analysis-check obs-check reorg-check compile-check server-check federation-check query-check analysis-smoke obs-smoke reorg-smoke compile-smoke server-smoke federation-smoke query-smoke clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-recovery: ## durability cost + recovery latency -> benchmarks/results/BENCH_recovery.json
	PYTHONPATH=src python -m pytest benchmarks/bench_recovery.py --benchmark-only -q

lint-schema: ## static analysis over every example and paper-figure schema
	PYTHONPATH=src python -m repro.analysis --strict --paper-figures \
		examples/schemas/milestones.cactis examples/schemas/very_late.cactis
	PYTHONPATH=src python -m repro.analysis --strict \
		--functions file_mod_time,system_command examples/schemas/make.cactis
	PYTHONPATH=src python -m repro.analysis --strict examples/schemas/project.cactis

lint-src: ## ruff over src/ when available (config in pyproject.toml)
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src benchmarks; \
	else \
		echo "ruff not installed; falling back to a compile check"; \
		python -m compileall -q src benchmarks; \
	fi

# Each *-check target runs its area's tests, then the matching *-smoke
# target (smokes and benchmarks only).  `make ci` runs the full suite once
# and then the *-smoke targets, so no test runs twice there.

analysis-check: ## dataflow/facts suite + --facts smoke over the paper figures
	PYTHONPATH=src python -m pytest tests/analysis -q
	$(MAKE) analysis-smoke

analysis-smoke: ## --facts smoke over the paper figures
	PYTHONPATH=src python -m repro.analysis --strict --quiet --paper-figures \
		--facts /tmp/analysis-facts.json
	PYTHONPATH=src python -c "import json; d = json.load(open('/tmp/analysis-facts.json')); assert d, 'empty facts dump'; print('facts units:', ', '.join(sorted(d)))"
	rm -f /tmp/analysis-facts.json

obs-check: ## docs/OBSERVABILITY.md cross-check + CLI smoke on a recorded trace
	PYTHONPATH=src python -m pytest tests/obs/test_docs.py -q
	$(MAKE) obs-smoke

obs-smoke: ## CLI smoke on a recorded trace
	PYTHONPATH=src python -m repro.obs demo --trace /tmp/obs-check.jsonl > /dev/null
	PYTHONPATH=src python -m repro.obs summarize /tmp/obs-check.jsonl
	rm -f /tmp/obs-check.jsonl

reorg-check: ## online-reorg crash matrix + docs cross-check + benchmark smoke
	PYTHONPATH=src python -m pytest tests/persistence/test_reorg_crash.py \
		tests/storage/test_reorg_driver.py tests/storage/test_reorg_properties.py \
		tests/storage/test_storage_docs.py -q
	$(MAKE) reorg-smoke

reorg-smoke: ## online-reorg benchmark smoke
	PYTHONPATH=src python -m pytest benchmarks/bench_reorg.py --benchmark-only -q

compile-check: ## codegen/slot-plan contract: unit + property + doc tests, A/B benchmark
	PYTHONPATH=src python -m pytest tests/compile -q
	$(MAKE) compile-smoke

compile-smoke: ## compiled-vs-interpreted A/B benchmark
	PYTHONPATH=src python -m pytest benchmarks/bench_compile.py --benchmark-only -q

server-check: ## wire-protocol suite + live server smoke (start, drive 8 clients, clean shutdown)
	PYTHONPATH=src python -m pytest tests/server -q
	$(MAKE) server-smoke

server-smoke: ## live server smoke (start, drive 8 clients, clean shutdown)
	PYTHONPATH=src python -m repro.server --smoke

federation-check: ## distributed suite + 4-site placement smoke + placement A/B bench
	PYTHONPATH=src python -m pytest tests/distributed -q
	$(MAKE) federation-smoke

federation-smoke: ## 4-site placement smoke + placement A/B bench
	PYTHONPATH=src python -m repro.distributed --smoke
	PYTHONPATH=src python -m pytest benchmarks/bench_distributed.py --benchmark-only -q

query-check: ## index/planner suites + docs cross-check + indexed-vs-scan A/B bench
	PYTHONPATH=src python -m pytest tests/index tests/dsl/test_query.py \
		tests/dsl/test_query_planner.py tests/dsl/test_query_docs.py \
		tests/persistence/test_index_recovery.py -q
	$(MAKE) query-smoke

query-smoke: ## indexed-vs-scan A/B bench
	PYTHONPATH=src python -m pytest benchmarks/bench_query.py --benchmark-only -q

bench-server: ## served txn/s + p99 under 16 clients -> benchmarks/results/BENCH_server.json
	PYTHONPATH=src python -m pytest benchmarks/bench_server.py --benchmark-only -q

ci: ## what .github/workflows/ci.yml runs: the full suite once, then the smokes
	python -m compileall -q src
	$(MAKE) lint-schema
	$(MAKE) lint-src
	$(MAKE) analysis-smoke
	$(MAKE) obs-smoke
	PYTHONPATH=src python -m pytest -x -q
	$(MAKE) reorg-smoke
	$(MAKE) compile-smoke
	$(MAKE) server-smoke
	$(MAKE) federation-smoke
	$(MAKE) query-smoke

examples:
	@for ex in examples/*.py; do echo "== $$ex"; python $$ex > /dev/null && echo ok; done

results: ## regenerate test_output.txt and bench_output.txt
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/results/*.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
