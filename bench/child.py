"""One benchmark round: one workload in one cold process.

``run.py`` starts a fresh interpreter per round, with every ``REPRO_*``
variable removed from its environment::

    python bench/child.py --workload table2-reg --seed 1 [--scale 1.0]
                          [--trace --trace-dir DIR --round K]

The round sets the workload up through the program's own entry points,
runs it serially (``workers=1``) and prints one JSON object on stdout:
setup and run-phase wall times, per-run wall samples, peak RSS, the
canonical outputs with their digest, invariant violations, the
virtual-time outcomes and, when traced, the per-layer metrics.
``--import-only`` only imports the program, so that bytecode
compilation is paid before the first timed round.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

#: Round sizes at ``--scale 1``.  Table II runs are paper scale (500
#: faults per service); the idl column needs 4,000 per service for a
#: comparable run phase because its runs fail-stop early.
WORKLOADS = {
    "table2-reg": {"kind": "table2", "fault_class": "reg", "n_faults": 500},
    "table2-idl": {"kind": "table2", "fault_class": "idl", "n_faults": 4000},
    "fig7-closed": {
        "kind": "fig7", "n_seeds": 130,
        "spec": {"n_requests": 250, "n_faults": 3},
    },
    # One fixed arrival schedule: its total request weight varies by
    # +-10% between arrival seeds, which would make host throughput
    # depend on --seed.  --seed still moves every injected fault.
    "fig7-open": {
        "kind": "fig7", "n_seeds": 80,
        "spec": {
            "arrivals": "open", "load": 2.0, "phases": "burst",
            "n_requests": 400, "n_faults": 3, "slo_us": 500,
            "arrival_seed": 1,
        },
    },
}

SETUP_STEPS = ("idl_compile", "calibrate", "pool_boot", "recording")


def planned_runs(workload: str, scale: float) -> int:
    """Runs one round of ``workload`` executes at ``scale``."""
    cfg = WORKLOADS[workload]
    if cfg["kind"] == "table2":
        return 6 * _scaled(cfg["n_faults"], scale)
    return _scaled(cfg["n_seeds"], scale)


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def digest(outputs) -> str:
    """sha256 of the canonical JSON encoding of ``outputs``."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Round:
    """Timing and outputs of one round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        #: Process start (before ``import repro``) to the first set-up step.
        self.import_s = None
        self.setup = dict.fromkeys(SETUP_STEPS, 0.0)
        self.run_wall = 0.0
        self.walls = []
        self.violations = []

    @contextmanager
    def step(self, name):
        start = time.perf_counter()
        if self.import_s is None:
            self.import_s = start - _START
        try:
            yield
        finally:
            self.setup[name] += time.perf_counter() - start

    @contextmanager
    def run_phase(self):
        if self.tracer is not None:
            self.tracer.in_run = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.run_wall += time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.in_run = False

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.violations.append(what)


def run_table2(cfg, seed, scale, rnd: Round):
    from repro.idl_specs import SERVICES
    from repro.swifi import campaign
    from repro.swifi.classify import OUTCOMES
    from repro.system import GLOBAL_POOL, compile_all_interfaces

    code = {outcome: str(i) for i, outcome in enumerate(OUTCOMES)}
    n_faults = _scaled(cfg["n_faults"], scale)
    rows, runs = [], {}
    for service in SERVICES:
        runner = campaign.CampaignRunner(
            service, fault_class=cfg["fault_class"], n_faults=n_faults,
            seed=seed,
        )
        with rnd.step("idl_compile"):
            compile_all_interfaces()
        with rnd.step("pool_boot"):
            GLOBAL_POOL.acquire(
                ft_mode=runner.ft_mode, recovery_mode=runner.recovery_mode
            )
        with rnd.step("calibrate"):
            spec = runner.spec()
        with rnd.step("recording"):
            campaign._campaign_recording(spec)
        codes = []
        last = [0.0]

        def progress(done, total, outcome):
            now = time.perf_counter()
            rnd.walls.append(now - last[0])
            last[0] = now
            codes.append(code[outcome])
            if rnd.tracer is not None:
                rnd.tracer.run += 1

        with rnd.run_phase():
            last[0] = time.perf_counter()
            result = runner.run(workers=1, progress=progress)
        row = result.row()
        rows.append(row)
        runs[service] = "".join(codes)
        rnd.check(row["injected"] == n_faults == len(codes),
                  f"{service}: injected != {n_faults}")
        rnd.check(sum(row[o.value] for o in OUTCOMES) == row["injected"],
                  f"{service}: outcome counts do not sum to injected")
        rnd.check(0 < row["activation_ratio"] <= 1,
                  f"{service}: activation ratio out of (0, 1]")
        if cfg["fault_class"] == "idl":
            # Interface fuzz fail-stops without a micro-reboot.
            rnd.check(row["recovered"] == 0, f"{service}: idl recovered")
    injected = sum(row["injected"] for row in rows)
    undetected = sum(row["undetected"] for row in rows)
    activated = injected - undetected
    sim = {"sim_activation_ratio": activated / injected}
    if cfg["fault_class"] == "reg":
        recovered = sum(row["recovered"] for row in rows)
        sim["sim_recovery_rate"] = recovered / activated
    return {"rows": rows, "runs": runs}, rows, "".join(runs.values()), sim


def run_fig7(cfg, seed, scale, rnd: Round):
    from repro.composite.scheduler import CYCLES_PER_US
    from repro.system import GLOBAL_POOL, compile_all_interfaces
    from repro.webserver import campaign as web

    fields = dict(cfg["spec"])
    fields["n_requests"] = max(40, _scaled(fields["n_requests"], scale))
    spec = web.WebRunSpec(**fields)
    with rnd.step("idl_compile"):
        compile_all_interfaces()
    with rnd.step("pool_boot"):
        GLOBAL_POOL.acquire(
            ft_mode=spec.ft_mode, recovery_mode=spec.recovery_mode,
            prepare=web.prepare_webserver,
        )
    with rnd.step("recording"):
        web._web_recording(spec)
    seeds = web.web_run_seeds(seed, _scaled(cfg["n_seeds"], scale))
    rows = []
    with rnd.run_phase():
        for index, run_seed in enumerate(seeds):
            if rnd.tracer is not None:
                rnd.tracer.run = index
            start = time.perf_counter()
            rows.append(web.execute_web_run(spec, run_seed))
            rnd.walls.append(time.perf_counter() - start)
        aggregate = web.aggregate_rows(spec, rows)
    n_requests = len(seeds) * spec.n_requests
    rnd.check(aggregate["runs"] == len(seeds), "runs != seeds")
    rnd.check(aggregate["requests"] == n_requests, "requests != planned")
    rnd.check(aggregate["served"] <= n_requests, "served > requests")
    rnd.check(
        aggregate["faults_delivered"] <= aggregate["faults_armed"]
        <= len(seeds) * spec.n_faults,
        "delivered > armed or armed > planned",
    )
    rnd.check(aggregate["throughput_rps"] > 0, "no virtual throughput")
    hist = aggregate["metrics"]["histograms"]["request_latency_cycles"]
    sim = {
        "sim_throughput_rps": aggregate["throughput_rps"],
        "sim_latency_p99_us": aggregate["latency_p99_cycles"] / CYCLES_PER_US,
        "sim_latency_p999_us": (
            web.histogram_quantile(hist, 0.999) / CYCLES_PER_US
        ),
    }
    if spec.arrivals == "open":
        rnd.check(aggregate["slo_ok"] + aggregate["slo_miss"] == n_requests,
                  "slo_ok + slo_miss != requests")
        sim["sim_goodput_rps"] = aggregate["goodput_rps"]
    run_keys = [digest(row)[:16] for row in rows]
    return {"rows": rows}, aggregate, run_keys, sim


def run_round(workload, seed, scale=1.0, tracer=None):
    """Run one round in this process; returns the result dict."""
    cfg = WORKLOADS[workload]
    rnd = Round(tracer)
    runner = run_table2 if cfg["kind"] == "table2" else run_fig7
    outputs, summary, run_keys, sim = runner(cfg, seed, scale, rnd)
    result = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "traced": tracer is not None,
        "setup_s": rnd.import_s + sum(rnd.setup.values()),
        "setup_steps_s": rnd.setup,
        "import_s": rnd.import_s,
        "run_wall_s": rnd.run_wall,
        "runs": len(rnd.walls),
        "walls_s": rnd.walls,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "outputs_digest": digest(outputs),
        "summary": summary,
        "run_keys": run_keys,
        "sim": sim,
        "violations": rnd.violations,
    }
    if tracer is not None:
        layers = {f"setup.{step}_ms": rnd.setup[step] * 1e3
                  for step in SETUP_STEPS}
        layers.update(tracer.layer_metrics(rnd.run_wall))
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)
    if args.import_only:
        import repro.swifi.campaign  # noqa: F401
        import repro.webserver.campaign  # noqa: F401
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result = run_round(args.workload, args.seed, args.scale, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None and args.trace_dir is not None:
        tracer.write_spans(
            args.trace_dir / f"{args.workload}-round{args.round}.jsonl"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
