# Convenience targets for the SuperGlue reproduction.

PY ?= python3
# Worker-pool size for the SWIFI campaign (0 = all CPUs).
WORKERS ?= 0

.PHONY: install test lint bench perf throughput exactness profile campaign fig7 fig7-campaign examples clean

install:
	pip install -e . --no-build-isolation || $(PY) setup.py develop

test:
	$(PY) -m pytest tests/

lint:
	$(PY) -m ruff check src tests benchmarks examples

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -s

# Interpreter, campaign and web-campaign throughput, each gated against
# its committed baseline (absolute rates with a wide tolerance plus
# machine-independent ratio floors).
perf:
	$(PY) benchmarks/bench_interp_throughput.py --json /tmp/interp_throughput.json
	$(PY) scripts/check_perf_baseline.py /tmp/interp_throughput.json \
		benchmarks/baselines/interp_throughput.json
	$(PY) benchmarks/bench_campaign_throughput.py --json /tmp/campaign_throughput.json
	$(PY) scripts/check_perf_baseline.py /tmp/campaign_throughput.json \
		benchmarks/baselines/campaign_throughput.json
	$(PY) benchmarks/bench_fig7_webserver.py --json /tmp/fig7_webserver.json
	$(PY) scripts/check_perf_baseline.py /tmp/fig7_webserver.json \
		benchmarks/baselines/fig7_webserver.json

# The campaign-throughput trajectory in one command: fresh -> pooled
# from boot -> pooled from ladder rungs (the three sweeps of
# bench_campaign_throughput.py, outcome-identity asserted), gated
# against the committed baseline's runs/s ratio floors.
throughput:
	$(PY) benchmarks/bench_campaign_throughput.py --json /tmp/campaign_throughput.json
	$(PY) scripts/check_perf_baseline.py /tmp/campaign_throughput.json \
		benchmarks/baselines/campaign_throughput.json

# The exactness matrix: every Table II and Fig. 7 campaign across
# workers, spawned workers, pooling, interpreter-only, pool-debug and
# traced runs, byte-identical to its serial reference, and the 50-fault
# Table II and open-loop sweep artifacts equal to their committed
# baselines (see scripts/exactness.py; the same run as CI's).
exactness:
	$(PY) scripts/exactness.py

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

fig7:
	$(PY) -m repro fig7 --requests 2000

# Multi-seed faulted web-server campaign (SEEDS/WORKERS overridable).
SEEDS ?= 16
fig7-campaign:
	$(PY) -m repro fig7 --seeds $(SEEDS) --workers $(WORKERS)

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
