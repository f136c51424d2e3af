# Convenience targets for the repro repository.

PYTHON ?= python3

.PHONY: install test bench reports validate methodology clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m repro perf --json BENCH_core.json
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

reports:
	$(PYTHON) -m repro run all -o reports/

validate:
	$(PYTHON) -m repro validate

methodology:
	$(PYTHON) -m repro methodology

clean:
	rm -rf reports/ .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
