"""Open-loop arrival process for the web path (ROADMAP item 2).

The Fig. 7 load generator is closed-loop (``ab -c 10`` semantics): a
fixed outstanding-request bound means arrivals *wait* for the server,
which by construction hides overload behavior.  This module supplies the
open-loop alternative: a request stream pinned to virtual-time arrival
instants that do not care how busy the server is, so queues grow
unboundedly when offered load exceeds capacity — which is the point.

The whole stream is a pure function of an :class:`ArrivalSpec`:

* **Poisson arrivals** — exponential inter-arrival gaps in virtual
  cycles, drawn from a dedicated ``random.Random`` stream seeded only by
  the spec, never by the SWIFI run seed.  One spec therefore yields one
  arrival schedule shared by every seeded run of a campaign (the
  spec's one-rung snapshot ladder depends on this: seeds perturb only
  the injected faults, so one clean prefix serves all seeds).
* **Phase schedule** — steady/burst/diurnal presets (or an explicit
  ``name:fraction@rate`` list) partition the request stream and scale
  the arrival rate per phase, so overload can be transient (a burst
  riding on a sustainable baseline) or sustained.
* **Bounded-Pareto request sizes** — each request carries an integer
  ``weight`` drawn from a bounded Pareto (heavy-tailed, like real web
  object sizes); the server scales its RamFS content reads and
  application compute by the weight (see
  :meth:`repro.webserver.server.WebServer._handle`).

``load`` is the offered-load multiplier: the mean inter-arrival gap is
the *estimated mean per-request service demand* divided by ``load``, so
``load=1.0`` offers approximately the single-virtual-CPU capacity
(utilization ~1), below 1 is underload, above is sustained overload.
Phase rate multipliers apply on top of ``load``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

#: Estimated virtual cycles the server spends on a weight-1 request,
#: end to end (component invocations + application compute +
#: amortized housekeeping).  Measured on the closed-loop path:
#: 1000-request superglue runs complete in ~13.1k cycles/request.
EST_BASE_CYCLES = 13_000

#: Estimated extra cycles per additional weight unit (one more
#: tseek+tread round trip plus per-chunk application compute; see
#: ``WebServer._handle``).
EST_CHUNK_CYCLES = 3_000

#: Named phase presets.  Fractions partition the request stream; rates
#: multiply the arrival intensity within the phase.
PHASE_PRESETS = {
    "steady": (("steady", 1.0, 1.0),),
    # A 4x burst riding on a sustainable baseline: transient overload.
    "burst": (
        ("steady", 0.4, 1.0),
        ("burst", 0.2, 4.0),
        ("steady", 0.4, 1.0),
    ),
    # A compressed day: two quiet shoulders around a peak.
    "diurnal": (
        ("night", 0.15, 0.4),
        ("morning", 0.20, 0.9),
        ("peak", 0.30, 1.6),
        ("evening", 0.20, 0.9),
        ("late", 0.15, 0.4),
    ),
}


@dataclass(frozen=True)
class Phase:
    """One segment of the arrival schedule."""

    name: str
    fraction: float  # share of the total request count, in (0, 1]
    rate: float      # arrival-rate multiplier within the phase, > 0


@dataclass(frozen=True)
class Arrival:
    """One request's virtual-time arrival instant, target, and size."""

    at: int       # virtual-cycle arrival time
    path: str     # site path (cycled, as in the closed-loop generator)
    weight: int   # bounded-Pareto size units (1 = the closed-loop size)


def parse_phases(spec: str) -> Tuple[Phase, ...]:
    """Parse a phase schedule: a preset name or ``name:frac@rate,...``.

    Fractions must sum to 1 (within 1e-6) and every fraction and rate
    must be positive; raises ``ValueError`` otherwise so a typo'd sweep
    fails before the campaign runs.
    """
    preset = PHASE_PRESETS.get(spec)
    if preset is not None:
        return tuple(Phase(*entry) for entry in preset)
    phases: List[Phase] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, rest = part.partition(":")
        frac_str, sep2, rate_str = rest.partition("@")
        if not sep or not sep2:
            raise ValueError(
                f"bad phase {part!r}: expected name:fraction@rate "
                f"(or a preset: {', '.join(sorted(PHASE_PRESETS))})"
            )
        try:
            fraction, rate = float(frac_str), float(rate_str)
        except ValueError as exc:
            raise ValueError(f"bad phase {part!r}: {exc}") from None
        if fraction <= 0 or rate <= 0:
            raise ValueError(
                f"bad phase {part!r}: fraction and rate must be positive"
            )
        phases.append(Phase(name, fraction, rate))
    if not phases:
        raise ValueError(f"empty phase spec {spec!r}")
    total = sum(phase.fraction for phase in phases)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(
            f"phase fractions must sum to 1.0, got {total!r} in {spec!r}"
        )
    return tuple(phases)


def bounded_pareto(u: float, alpha: float, lo: int, hi: int) -> int:
    """Inverse-CDF sample of a bounded Pareto on ``[lo, hi]``.

    ``u`` is a uniform draw in ``[0, 1)``.  Returns an integer weight,
    clamped to the bounds (the continuous sample is truncated, so the
    mass at ``hi`` is the tail beyond it — exactly what a bounded
    heavy tail means).
    """
    if lo >= hi:
        return lo
    ratio = (lo / hi) ** alpha
    x = lo * (1.0 - u * (1.0 - ratio)) ** (-1.0 / alpha)
    return max(lo, min(hi, int(x)))


@dataclass(frozen=True)
class ArrivalSpec:
    """Everything the arrival stream depends on.  Seed-pure: two equal
    specs always build byte-identical schedules, and the SWIFI run seed
    is deliberately *not* part of the spec."""

    n_requests: int = 120
    load: float = 1.0
    phases: str = "steady"
    seed: int = 0
    #: Bounded-Pareto tail index alpha, in thousandths (an int keeps the
    #: frozen spec hashable-stable and the fingerprint exact).  1500 =
    #: alpha 1.5, the classic heavy-tailed web-object-size regime.
    alpha_milli: int = 1500
    weight_min: int = 1
    weight_max: int = 32

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("ArrivalSpec needs n_requests >= 1")
        if self.load <= 0:
            raise ValueError("ArrivalSpec needs load > 0")
        if self.alpha_milli <= 1000:
            # alpha <= 1 has no finite mean: the load calibration (and
            # any notion of "offered load") would be meaningless.
            raise ValueError("ArrivalSpec needs alpha_milli > 1000")
        if not 1 <= self.weight_min <= self.weight_max:
            raise ValueError(
                "ArrivalSpec needs 1 <= weight_min <= weight_max"
            )
        parse_phases(self.phases)  # fail fast on a typo'd schedule

    # ------------------------------------------------------------------
    def phase_counts(self) -> List[Tuple[Phase, int]]:
        """Per-phase request counts (largest-remainder apportionment, so
        they sum exactly to ``n_requests`` and every phase with nonzero
        fraction gets at least one request when possible)."""
        phases = parse_phases(self.phases)
        raw = [phase.fraction * self.n_requests for phase in phases]
        counts = [int(value) for value in raw]
        remainders = sorted(
            range(len(phases)),
            key=lambda i: (-(raw[i] - counts[i]), i),
        )
        short = self.n_requests - sum(counts)
        for i in remainders[:short]:
            counts[i] += 1
        return list(zip(phases, counts))

    def build(self, site_paths: Tuple[str, ...]) -> List[Arrival]:
        """The full arrival schedule, earliest first.

        Weights are drawn first, then gaps, from one RNG stream — the
        draw order is part of the schedule's identity, so never reorder
        it.  The mean inter-arrival gap is calibrated against the
        *estimated* total service demand of the drawn weights: at
        ``load=1.0`` the stream offers approximately one virtual CPU's
        worth of work.
        """
        rng = random.Random(f"arrivals:{self.seed}:{self.n_requests}")
        alpha = self.alpha_milli / 1000.0
        weights = [
            bounded_pareto(
                rng.random(), alpha, self.weight_min, self.weight_max
            )
            for __ in range(self.n_requests)
        ]
        est_demand = sum(
            EST_BASE_CYCLES + (weight - 1) * EST_CHUNK_CYCLES
            for weight in weights
        )
        mean_gap = est_demand / (self.n_requests * self.load)
        arrivals: List[Arrival] = []
        now = 0
        index = 0
        for phase, count in self.phase_counts():
            phase_gap = mean_gap / phase.rate
            for __ in range(count):
                # Exponential inter-arrival; 1 - u avoids log(0).
                gap = int(-math.log(1.0 - rng.random()) * phase_gap)
                now += max(1, gap)
                arrivals.append(
                    Arrival(
                        at=now,
                        path=site_paths[index % len(site_paths)],
                        weight=weights[index],
                    )
                )
                index += 1
        return arrivals


def offered_rps(arrivals: List[Arrival], cycles_per_us: int) -> float:
    """Offered load in requests per virtual second."""
    if not arrivals:
        return 0.0
    span = arrivals[-1].at
    if span <= 0:
        return 0.0
    return len(arrivals) / (span / (cycles_per_us * 1e6))
