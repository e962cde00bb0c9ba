"""Smoke tests: every example script runs to a successful exit."""

import os
import subprocess
import sys

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name, *args, timeout=240):
    path = os.path.abspath(os.path.join(EXAMPLES, name))
    # Examples run under the default engine configuration, whatever
    # REPRO_* gates the calling shell exported.
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    result = subprocess.run(
        [sys.executable, path, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "workload correct     : True" in out

    def test_custom_service(self):
        out = run_example("custom_service.py")
        assert "queue recovered transparently: OK" in out

    def test_fault_injection_campaign(self):
        out = run_example("fault_injection_campaign.py", "10")
        assert "SuccRate" in out

    def test_webserver_demo(self):
        out = run_example("webserver_demo.py", "120")
        assert "apache (model)" in out
        assert "slowdown" in out

    def test_latent_fault_monitor(self):
        out = run_example("latent_fault_monitor.py")
        assert "speedup" in out

    def test_embedded_sensor_logger(self):
        out = run_example("embedded_sensor_logger.py")
        assert "pipeline survived system-service faults: OK" in out
