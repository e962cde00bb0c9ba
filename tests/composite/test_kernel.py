"""Unit tests for the kernel: invocation, blocking, faults, run loop."""

import pytest

from repro.composite.app import AppComponent
from repro.composite.booter import Booter
from repro.composite.component import Component, export
from repro.composite.kernel import FAULT, Kernel
from repro.composite.thread import Invoke, ThreadState, Yield
from repro.errors import (
    AssertionFault,
    BlockThread,
    CapabilityError,
    ConfigurationError,
    SystemHang,
)


class EchoService(Component):
    """Minimal test service."""

    def __init__(self):
        super().__init__("echo")
        self.calls = []

    def reinit(self):
        self.calls = []

    @export
    def echo(self, thread, value):
        self.calls.append(value)
        return value

    @export
    def boom(self, thread):
        raise AssertionFault("synthetic", component=self.name)

    @export
    def park(self, thread, token):
        raise BlockThread(self.name, token, on_wake=lambda t, tok, to: "woken")

    @export
    def park_timeout(self, thread, token, expiry):
        raise BlockThread(
            self.name, token, timeout=expiry,
            on_wake=lambda t, tok, timed_out: "timeout" if timed_out else "woken",
        )

    @export
    def call_then_park(self, thread, token):
        self.call(thread, "echo", "echo", token)  # no stub for echo->echo
        return self.park(thread, token)

    @export
    def wake(self, thread, token):
        return self.kernel.wake_token(self.name, token)


class TrackingStub:
    """A client stub for app0 -> echo that records its post-wakeup
    tracking."""

    def __init__(self):
        self.unblocked = []

    def invoke(self, kernel, thread, fn, args):
        return kernel.raw_invoke(thread, "echo", fn, args)

    def post_unblock(self, kernel, thread, fn, args, value):
        self.unblocked.append(fn)
        return value


def make_kernel(ft_mode="superglue"):
    kernel = Kernel(ft_mode=ft_mode)
    kernel.register_component(AppComponent("app0"))
    kernel.register_component(EchoService())
    kernel.grant_all_caps()
    Booter(kernel)
    return kernel


class TestConfiguration:
    def test_unknown_ft_mode(self):
        with pytest.raises(ConfigurationError):
            Kernel(ft_mode="bogus")

    def test_duplicate_component(self):
        kernel = Kernel()
        kernel.register_component(AppComponent("a"))
        with pytest.raises(ConfigurationError):
            kernel.register_component(AppComponent("a"))

    def test_unknown_component_lookup(self):
        with pytest.raises(ConfigurationError):
            Kernel().component("nope")

    def test_images_do_not_overlap(self):
        kernel = Kernel()
        kernel.register_component(AppComponent("a"))
        kernel.register_component(AppComponent("b"))
        a = kernel.component("a").image
        b = kernel.component("b").image
        assert a.base + a.size <= b.base or b.base + b.size <= a.base


class TestInvocation:
    def test_basic_invoke(self):
        kernel = make_kernel()
        results = []

        def body(system, thread):
            results.append((yield Invoke("echo", "echo", 41)))

        kernel.create_thread("t", prio=1, home="app0", body_factory=body)
        kernel.run()
        assert results == [41]

    def test_capability_denied(self):
        kernel = Kernel()
        kernel.register_component(AppComponent("app0"))
        kernel.register_component(EchoService())
        Booter(kernel)  # no caps granted

        def body(system, thread):
            yield Invoke("echo", "echo", 1)

        kernel.create_thread("t", prio=1, home="app0", body_factory=body)
        with pytest.raises(CapabilityError):
            kernel.run()

    def test_invocation_charges_cycles(self):
        kernel = make_kernel()

        def body(system, thread):
            yield Invoke("echo", "echo", 1)

        kernel.create_thread("t", prio=1, home="app0", body_factory=body)
        kernel.run()
        assert kernel.clock.now > 0
        assert kernel.stats["invocations"] == 1

    def test_unknown_fn_raises(self):
        kernel = make_kernel()

        def body(system, thread):
            yield Invoke("echo", "nonexistent")

        kernel.create_thread("t", prio=1, home="app0", body_factory=body)
        with pytest.raises(CapabilityError):
            kernel.run()

    def test_yield_action(self):
        kernel = make_kernel()
        order = []

        def body_a(system, thread):
            order.append("a1")
            yield Yield()
            order.append("a2")

        def body_b(system, thread):
            order.append("b1")
            yield Yield()
            order.append("b2")

        kernel.create_thread("a", prio=1, home="app0", body_factory=body_a)
        kernel.create_thread("b", prio=1, home="app0", body_factory=body_b)
        kernel.run()
        assert sorted(order) == ["a1", "a2", "b1", "b2"]


class TestBlocking:
    def test_block_and_wake(self):
        # With a client stub, the wake runs the stub's tracking for the
        # blocked call, even after a stub-less nested call by the server.
        for fn, stub in (("park", None), ("call_then_park", TrackingStub())):
            kernel = make_kernel()
            if stub is not None:
                kernel.register_stub("app0", "echo", stub)
            results = {}

            def sleeper(system, thread):
                results["slept"] = yield Invoke("echo", fn, "tok")

            def waker(system, thread):
                yield Yield()  # let the sleeper block first
                results["woken_count"] = yield Invoke("echo", "wake", "tok")

            kernel.create_thread("s", prio=5, home="app0", body_factory=sleeper)
            kernel.create_thread("w", prio=5, home="app0", body_factory=waker)
            kernel.run()
            assert results["slept"] == "woken"
            assert results["woken_count"] == 1
        assert stub.unblocked == ["call_then_park"]

    def test_block_timeout_fires(self):
        kernel = make_kernel()
        results = {}

        def sleeper(system, thread):
            results["value"] = yield Invoke(
                "echo", "park_timeout", "tok", 5_000
            )

        kernel.create_thread("s", prio=5, home="app0", body_factory=sleeper)
        kernel.run()
        assert results["value"] == "timeout"
        assert kernel.clock.now >= 5_000

    def test_deadlock_detected(self):
        kernel = make_kernel()

        def sleeper(system, thread):
            yield Invoke("echo", "park", "never")

        kernel.create_thread("s", prio=5, home="app0", body_factory=sleeper)
        with pytest.raises(SystemHang):
            kernel.run()

    def test_blocked_threads_in(self):
        kernel = make_kernel()

        def sleeper(system, thread):
            yield Invoke("echo", "park", "tok")

        kernel.create_thread("s", prio=5, home="app0", body_factory=sleeper)
        try:
            kernel.run()
        except SystemHang:
            pass
        assert len(kernel.blocked_threads_in("echo")) == 1

    def test_wake_all_in_redo(self):
        kernel = make_kernel()
        attempts = []

        def sleeper(system, thread):
            attempts.append("call")
            yield Invoke("echo", "park", "tok")

        kernel.create_thread("s", prio=5, home="app0", body_factory=sleeper)
        try:
            kernel.run(max_steps=3)
        except SystemHang:
            pass
        woken = kernel.wake_all_in("echo", redo=True)
        assert woken == 1
        thread = next(iter(kernel.threads.values()))
        assert thread.pending[0] == "redo"


class TestFaults:
    def test_fault_vectors_to_booter_and_returns_fault(self):
        kernel = make_kernel(ft_mode="superglue")
        echo = kernel.component("echo")

        def body(system, thread):
            yield Invoke("echo", "echo", 1)

        thread = kernel.create_thread("t", prio=1, home="app0", body_factory=body)
        result = kernel.raw_invoke(thread, "echo", "boom", ())
        assert result is FAULT
        assert echo.reboot_epoch == 1
        assert kernel.stats["micro_reboots"] == 1

    def test_fault_in_none_mode_is_fatal(self):
        kernel = make_kernel(ft_mode="none")

        def body(system, thread):
            yield Invoke("echo", "boom")

        kernel.create_thread("t", prio=1, home="app0", body_factory=body)
        kernel.run()
        assert kernel.crashed is not None
        thread = next(iter(kernel.threads.values()))
        assert thread.state is ThreadState.CRASHED

    def test_reboot_resets_component_state(self):
        kernel = make_kernel()
        echo = kernel.component("echo")

        def body(system, thread):
            yield Invoke("echo", "echo", 1)
            yield Invoke("echo", "boom")

        kernel.create_thread("t", prio=1, home="app0", body_factory=body)
        kernel.run(max_steps=5)
        assert echo.calls == []  # reinit cleared them

    def test_fault_observer_called(self):
        kernel = make_kernel()
        seen = []
        kernel.fault_observers.append(lambda comp, fault: seen.append(comp.name))
        thread = kernel.create_thread(
            "t", prio=1, home="app0", body_factory=lambda s, t: iter(())
        )
        kernel.raw_invoke(thread, "echo", "boom", ())
        assert seen == ["echo"]


class TestReflection:
    def test_reflect_threads(self):
        kernel = make_kernel()
        kernel.create_thread("t1", prio=3, home="app0",
                             body_factory=lambda s, t: iter(()))
        info = kernel.reflect_threads()
        assert len(info) == 1
        assert info[0]["prio"] == 3
        assert info[0]["state"] == "ready"


class TestUpcalls:
    def test_upcall_into_app_component(self):
        kernel = make_kernel()
        app = kernel.component("app0")
        seen = []
        app.register_handler("notify", lambda thread, value: seen.append(value))
        thread = kernel.create_thread(
            "t", prio=1, home="app0", body_factory=lambda s, t: iter(())
        )
        kernel.upcall(thread, "app0", "notify", 42)
        assert seen == [42]
        assert kernel.stats["upcalls"] == 1


class TestRunLoop:
    def test_max_steps_budget(self):
        kernel = make_kernel()

        def body(system, thread):
            while True:
                yield Yield()

        kernel.create_thread("t", prio=1, home="app0", body_factory=body)
        steps = kernel.run(max_steps=10)
        assert steps == 10

    def test_budget_exhaustion_is_flagged(self):
        # Regression: a run cut off by max_steps used to return exactly
        # like a clean completion, hiding livelocks from callers.
        kernel = make_kernel()

        def body(system, thread):
            while True:
                yield Yield()

        kernel.create_thread("t", prio=1, home="app0", body_factory=body)
        assert kernel.run(max_steps=10) == 10
        assert kernel.budget_exhausted
        assert kernel.stats["budget_exhausted"] == 1

    def test_clean_completion_is_not_flagged(self):
        kernel = make_kernel()

        def body(system, thread):
            yield Invoke("echo", "echo", 1)

        kernel.create_thread("t", prio=1, home="app0", body_factory=body)
        kernel.run(max_steps=10_000)
        assert not kernel.budget_exhausted
        assert kernel.stats["budget_exhausted"] == 0

    def test_finishing_exactly_at_budget_is_not_exhaustion(self):
        # The flag means "budget hit with live work remaining", not
        # "steps == max_steps": a workload that finishes on its very
        # last permitted step completed cleanly.
        def body(system, thread):
            yield Invoke("echo", "echo", 1)

        probe = make_kernel()
        probe.create_thread("t", prio=1, home="app0", body_factory=body)
        needed = probe.run(max_steps=10_000)
        exact = make_kernel()
        exact.create_thread("t", prio=1, home="app0", body_factory=body)
        assert exact.run(max_steps=needed) == needed
        assert not exact.budget_exhausted


class TestSleep:
    """The kernel-level ``Sleep`` action (open-loop arrival pacing)."""

    def test_sleep_wakes_at_instant_charging_no_cycles(self):
        from repro.composite.thread import Sleep

        kernel = make_kernel()
        seen = {}

        def body(system, thread):
            yield Sleep(50_000)
            seen["woke_at"] = kernel.clock.now
            seen["cycles"] = thread.cycles

        kernel.create_thread("sleeper", prio=5, home="app0", body_factory=body)
        kernel.run(max_steps=100)
        assert seen["woke_at"] == 50_000
        assert seen["cycles"] == 0

    def test_sleep_in_past_resumes_immediately(self):
        from repro.composite.thread import Sleep

        kernel = make_kernel()
        seen = {}

        def body(system, thread):
            yield Invoke("echo", "echo", 1)  # advances the clock
            before = kernel.clock.now
            yield Sleep(before - 1)
            seen["elapsed"] = kernel.clock.now - before

        kernel.create_thread("t", prio=5, home="app0", body_factory=body)
        kernel.run(max_steps=100)
        assert seen["elapsed"] == 0

    def test_sleeping_alone_is_not_a_hang(self):
        # A lone sleeper must ride skip_to_next_expiry, not trip the
        # all-blocked-no-timer deadlock detector.
        from repro.composite.thread import Sleep

        kernel = make_kernel()

        def body(system, thread):
            yield Sleep(10_000)

        kernel.create_thread("t", prio=5, home="app0", body_factory=body)
        kernel.run(max_steps=100)  # SystemHang would propagate
        assert kernel.clock.now == 10_000

    def test_sleep_parks_outside_any_component(self):
        # Fault wakeups (wake_all_in) sweep threads blocked *in* a
        # component; a sleeper must be invisible to them.
        from repro.composite.thread import Sleep

        kernel = make_kernel()
        seen = {}

        def sleeper(system, thread):
            yield Sleep(50_000)

        def observer(system, thread):
            while target.state is not ThreadState.BLOCKED:
                yield Yield()
            seen["blocked_in"] = target.blocked_in
            seen["echo_blocked"] = kernel.blocked_threads_in("echo")
            seen["woken_by_sweep"] = kernel.wake_all_in("echo")

        target = kernel.create_thread(
            "sleeper", prio=4, home="app0", body_factory=sleeper
        )
        kernel.create_thread(
            "observer", prio=5, home="app0", body_factory=observer
        )
        kernel.run(max_steps=200)
        assert seen["blocked_in"] is None
        assert seen["echo_blocked"] == []
        assert seen["woken_by_sweep"] == 0

    def test_ready_threads_run_while_another_sleeps(self):
        from repro.composite.thread import Sleep

        kernel = make_kernel()
        order = []

        def sleeper(system, thread):
            order.append("sleep-start")
            yield Sleep(1_000_000)
            order.append("sleep-end")

        def worker(system, thread):
            for i in range(3):
                yield Invoke("echo", "echo", i)
            order.append("worked")

        kernel.create_thread("s", prio=4, home="app0", body_factory=sleeper)
        kernel.create_thread("w", prio=5, home="app0", body_factory=worker)
        kernel.run(max_steps=200)
        assert order == ["sleep-start", "worked", "sleep-end"]
