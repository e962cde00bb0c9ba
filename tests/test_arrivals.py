"""Open-loop arrival schedules: purity, phases, heavy tails."""

import dataclasses

import pytest

from repro.composite.scheduler import CYCLES_PER_US
from repro.webserver.arrivals import (
    EST_BASE_CYCLES,
    EST_CHUNK_CYCLES,
    PHASE_PRESETS,
    Arrival,
    ArrivalSpec,
    bounded_pareto,
    offered_rps,
    parse_phases,
)
from repro.system import build_system
from repro.webserver.loadgen import OpenLoopGenerator
from repro.webserver.server import DEFAULT_SITE

SITE = ("about.html", "data.bin", "index.html")


class TestParsePhases:
    def test_presets_resolve(self):
        for name in PHASE_PRESETS:
            phases = parse_phases(name)
            assert phases
            assert abs(sum(p.fraction for p in phases) - 1.0) < 1e-9

    def test_custom_spec(self):
        phases = parse_phases("warm:0.25@0.5,storm:0.5@3.0,cool:0.25@0.5")
        assert [p.name for p in phases] == ["warm", "storm", "cool"]
        assert phases[1].rate == 3.0

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1.0"):
            parse_phases("a:0.5@1.0,b:0.4@1.0")

    def test_malformed_entries_rejected(self):
        for bad in ("a:@1", "a:0.5", "nonsense", "a:x@y", ""):
            with pytest.raises(ValueError):
                parse_phases(bad)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            parse_phases("a:1.0@0")


class TestBoundedPareto:
    def test_stays_in_bounds(self):
        for i in range(1000):
            u = i / 1000.0
            w = bounded_pareto(u, 1.5, 1, 32)
            assert 1 <= w <= 32

    def test_monotone_in_u(self):
        samples = [bounded_pareto(i / 100.0, 1.5, 1, 32) for i in range(100)]
        assert samples == sorted(samples)

    def test_degenerate_range(self):
        assert bounded_pareto(0.99, 1.5, 4, 4) == 4

    def test_heavy_tail_present(self):
        # The top of the u range must actually reach large weights.
        assert bounded_pareto(0.999, 1.5, 1, 32) > 16


class TestArrivalSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(n_requests=0)
        with pytest.raises(ValueError):
            ArrivalSpec(load=0)
        with pytest.raises(ValueError):
            ArrivalSpec(alpha_milli=1000)  # infinite mean
        with pytest.raises(ValueError):
            ArrivalSpec(weight_min=5, weight_max=2)
        with pytest.raises(ValueError):
            ArrivalSpec(phases="b:0.9@1.0")

    def test_phase_counts_apportion_exactly(self):
        spec = ArrivalSpec(n_requests=101, phases="burst")
        counts = spec.phase_counts()
        assert sum(c for __, c in counts) == 101

    def test_build_is_pure(self):
        spec = ArrivalSpec(n_requests=150, load=1.3, phases="diurnal", seed=5)
        assert spec.build(SITE) == spec.build(SITE)

    def test_seed_changes_schedule(self):
        a = ArrivalSpec(n_requests=100, seed=0).build(SITE)
        b = ArrivalSpec(n_requests=100, seed=1).build(SITE)
        assert a != b

    def test_arrival_seed_independent_of_equal_specs(self):
        # Two equal specs are the *same* schedule object-for-object —
        # this is what lets one snapshot ladder serve all SWIFI seeds
        # of a campaign.
        a = ArrivalSpec(n_requests=80, load=2.0, seed=3)
        b = ArrivalSpec(n_requests=80, load=2.0, seed=3)
        assert a.build(SITE) == b.build(SITE)
        # Open-loop installs share one immutable schedule per spec: equal
        # specs get the same tuple, equal to a fresh build, and another
        # arrival seed gets its own.
        system = build_system(ft_mode="superglue")
        installed = []
        for spec in (a, b, ArrivalSpec(n_requests=80, load=2.0, seed=4)):
            generator = OpenLoopGenerator(spec)
            generator.install(system, server=None)
            installed.append(generator.arrivals)
        assert installed[0] is installed[1]
        assert isinstance(installed[0], tuple)
        assert list(installed[0]) == a.build(tuple(sorted(DEFAULT_SITE)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            installed[0][0].at = 0
        assert installed[2] != installed[0]

    def test_times_strictly_increase(self):
        arrivals = ArrivalSpec(n_requests=200, load=5.0).build(SITE)
        times = [a.at for a in arrivals]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_weights_bounded(self):
        spec = ArrivalSpec(n_requests=300, weight_min=2, weight_max=8)
        assert all(2 <= a.weight <= 8 for a in spec.build(SITE))

    def test_load_scales_span(self):
        lo = ArrivalSpec(n_requests=200, load=0.5, seed=2).build(SITE)
        hi = ArrivalSpec(n_requests=200, load=2.0, seed=2).build(SITE)
        # Same weights, same gap draws: 4x the load compresses the span
        # by exactly 4 up to integer truncation.
        assert lo[-1].at > 3.5 * hi[-1].at

    def test_load_one_offers_about_estimated_demand(self):
        spec = ArrivalSpec(n_requests=500, load=1.0, seed=0)
        arrivals = spec.build(SITE)
        demand = sum(
            EST_BASE_CYCLES + (a.weight - 1) * EST_CHUNK_CYCLES
            for a in arrivals
        )
        span = arrivals[-1].at
        # Poisson noise: the realized span sits near the calibrated one.
        assert 0.7 < span / demand < 1.3

    def test_paths_cycle_site(self):
        arrivals = ArrivalSpec(n_requests=6).build(SITE)
        assert [a.path for a in arrivals] == list(SITE) * 2


class TestOfferedRps:
    def test_empty(self):
        assert offered_rps([], CYCLES_PER_US) == 0.0

    def test_rate_math(self):
        arrivals = [
            Arrival(at=(i + 1) * CYCLES_PER_US, path="index.html", weight=1)
            for i in range(100)
        ]
        # One request per virtual microsecond = 1e6 per virtual second.
        assert offered_rps(arrivals, CYCLES_PER_US) == pytest.approx(1e6)
