# Convenience targets for the SuperGlue reproduction.

PY ?= python3
# Worker-pool size for the SWIFI campaign (0 = all CPUs).
WORKERS ?= 0

.PHONY: install test lint bench perf throughput profile campaign fault-classes fig7 fig7-campaign fig7-openloop examples clean

install:
	pip install -e . --no-build-isolation || $(PY) setup.py develop

test:
	$(PY) -m pytest tests/

lint:
	$(PY) -m ruff check src tests benchmarks examples

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -s

# Interpreter + campaign throughput, each gated against its committed
# baseline (absolute rates with a wide tolerance plus a machine-
# independent ratio floor).
perf:
	$(PY) benchmarks/bench_interp_throughput.py --json /tmp/interp_throughput.json
	$(PY) scripts/check_interp_baseline.py /tmp/interp_throughput.json
	$(PY) benchmarks/bench_campaign_throughput.py --json /tmp/campaign_throughput.json
	$(PY) scripts/check_campaign_baseline.py /tmp/campaign_throughput.json
	$(PY) benchmarks/bench_fig7_webserver.py --json /tmp/fig7_webserver.json
	$(PY) scripts/check_fig7_baseline.py /tmp/fig7_webserver.json
	$(PY) benchmarks/bench_fig7_webserver.py --openloop --json /tmp/fig7_openloop.json
	$(PY) scripts/check_fig7_openloop.py /tmp/fig7_openloop.json

# The campaign-throughput trajectory in one command: fresh -> pooled
# from boot -> pooled from ladder rungs (the three sweeps of
# bench_campaign_throughput.py, outcome-identity asserted), gated
# against the committed baseline's runs/s ratio floors.
throughput:
	$(PY) benchmarks/bench_campaign_throughput.py --json /tmp/campaign_throughput.json
	$(PY) scripts/check_campaign_baseline.py /tmp/campaign_throughput.json

# cProfile over a small campaign; SERVICE/FAULTS/SORT overridable.
SERVICE ?= lock
FAULTS ?= 50
SORT ?= cumulative
profile:
	$(PY) scripts/profile_campaign.py --service $(SERVICE) --faults $(FAULTS) --sort $(SORT)

# The paper-scale campaign (500 faults per service), fanned out over the
# worker pool; aggregates are bit-identical to a serial run.
# FAULT_CLASS selects the injected fault model (reg/mem/idl/burst).
FAULT_CLASS ?= reg
campaign:
	REPRO_CAMPAIGN_FAULTS=500 REPRO_CAMPAIGN_WORKERS=$(WORKERS) \
		REPRO_CAMPAIGN_FAULT_CLASS=$(FAULT_CLASS) \
		$(PY) -m pytest \
		benchmarks/bench_table2_campaign.py --benchmark-only -s

# One 50-fault smoke column per fault class, each checked against its
# committed baseline — the local equivalent of the nightly
# `fault-classes` CI job.
fault-classes:
	workers=$(WORKERS); [ "$$workers" = "0" ] && workers=$$(nproc); \
	for fc in reg mem idl burst; do \
		PYTHONPATH=src $(PY) -m repro table2 --fault-class $$fc \
			--faults 50 --seed 1 --workers $$workers \
			--json /tmp/table2_$${fc}_smoke.json || exit 1; \
		$(PY) scripts/check_table2_baseline.py \
			/tmp/table2_$${fc}_smoke.json \
			benchmarks/baselines/table2_$${fc}_smoke.json || exit 1; \
	done

fig7:
	$(PY) -m repro fig7 --requests 2000

# Multi-seed faulted web-server campaign (SEEDS/WORKERS overridable).
SEEDS ?= 16
fig7-campaign:
	$(PY) -m repro fig7 --seeds $(SEEDS) --workers $(WORKERS)

# Deterministic open-loop offered-load sweep (goodput / p99 / p999 with
# faults at every load point), checked exactly against the committed
# baseline — the local equivalent of the `fig7-openloop` CI job.
fig7-openloop:
	$(PY) benchmarks/bench_fig7_webserver.py --openloop --json /tmp/fig7_openloop.json
	$(PY) scripts/check_fig7_openloop.py /tmp/fig7_openloop.json

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/custom_service.py
	$(PY) examples/fault_injection_campaign.py 50
	$(PY) examples/webserver_demo.py 500
	$(PY) examples/embedded_sensor_logger.py
	$(PY) examples/latent_fault_monitor.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
