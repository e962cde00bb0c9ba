"""Counters and histograms for the flight recorder.

The registry is deliberately integer-only: SWIFI campaigns merge one
serialized registry per worker into a campaign aggregate, and integer
addition is associative and commutative, so the merged result is
bit-identical regardless of worker count, chunking, or completion
order.  (Floating-point sums would not be.)

Two histogram shapes share that merge discipline:

* :class:`Histogram` uses power-of-two buckets (bucket *i* holds values
  whose bit length is *i*, i.e. ``[2**(i-1), 2**i)``) — plenty of
  resolution for cycle-count distributions whose values span several
  orders of magnitude, and a tiny serialized form.
* :class:`LogLinearHistogram` sub-divides every power-of-two decade
  into ``2**SUB_BUCKET_BITS`` linear sub-buckets (HDR-histogram style),
  bounding the relative quantile error at ``2**-SUB_BUCKET_BITS``
  (~3%) instead of a full factor of two.  Tail-latency SLO reporting
  (p99/p999 of open-loop request latencies) needs that resolution: a
  power-of-two bucket straddling the SLO deadline cannot tell a
  just-met from a badly-missed deadline.

Both serialize to the same dict shape (the log-linear form adds a
``sub_bits`` field) and merge with plain per-bucket integer adds, so
merging stays order-independent across either shape.
"""

from __future__ import annotations

from typing import Dict

from repro.config import CONFIG

#: Linear sub-buckets per power-of-two decade in
#: :class:`LogLinearHistogram`, as a bit count: 2**5 = 32 sub-buckets,
#: bounding relative error at 1/32 ~ 3%.
SUB_BUCKET_BITS = 5


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Power-of-two-bucket distribution of non-negative integers."""

    __slots__ = ("count", "total", "min", "max", "buckets", "clamped")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None  # type: ignore[assignment]
        self.max = None  # type: ignore[assignment]
        self.buckets: Dict[int, int] = {}
        #: Negative observations clamped to 0.  A virtual-clock
        #: regression producing negative latencies used to masquerade as
        #: a burst of 0-cycle requests; the clamp count makes it visible
        #: (and mergeable like every other field).
        self.clamped = 0

    def _index(self, value: int) -> int:
        return value.bit_length()

    def observe(self, value: int) -> None:
        value = int(value)
        if value < 0:
            if CONFIG.pool_debug:
                raise AssertionError(
                    f"histogram observed negative value {value}: virtual "
                    "time ran backwards"
                )
            self.clamped += 1
            value = 0
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = self._index(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "clamped": self.clamped,
            # JSON object keys are strings; sort for a canonical form.
            "buckets": {
                str(k): self.buckets[k] for k in sorted(self.buckets)
            },
        }


class LogLinearHistogram(Histogram):
    """Sub-bucketed power-of-two distribution (HDR-histogram style).

    Values below ``2**sub_bits`` are recorded exactly (index == value).
    Larger values land in the sub-bucket addressed by their top
    ``sub_bits + 1`` bits: for ``2**e <= v < 2**(e+1)`` the decade is
    split into ``2**sub_bits`` linear slices of width ``2**(e -
    sub_bits)``.  Indices are contiguous across the exact/log-linear
    boundary, merges stay per-bucket integer adds, and
    :func:`bucket_bounds` inverts an index back to its value range for
    quantile queries.
    """

    __slots__ = ()

    sub_bits = SUB_BUCKET_BITS

    def _index(self, value: int) -> int:
        sub_bits = self.sub_bits
        if value < (1 << sub_bits):
            return value
        exp = value.bit_length() - 1
        shift = exp - sub_bits
        mantissa = (value >> shift) & ((1 << sub_bits) - 1)
        return ((exp - sub_bits + 1) << sub_bits) + mantissa

    def to_dict(self) -> Dict[str, object]:
        data = super().to_dict()
        data["sub_bits"] = self.sub_bits
        return data


def bucket_bounds(index: int, sub_bits: int) -> tuple:
    """``(lower, upper)`` inclusive value range of a log-linear bucket."""
    if index < (1 << sub_bits):
        return index, index
    block = index >> sub_bits
    mantissa = index & ((1 << sub_bits) - 1)
    shift = block - 1
    lower = ((1 << sub_bits) + mantissa) << shift
    return lower, lower + (1 << shift) - 1


class MetricsRegistry:
    """Named counters and histograms, created on first use."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        return histogram

    def loglinear(self, name: str) -> LogLinearHistogram:
        """A log-linear histogram under ``name`` (created on first use).

        Shares the histogram namespace: a name is either power-of-two or
        log-linear for the registry's lifetime, never both.
        """
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = LogLinearHistogram()
        elif not isinstance(histogram, LogLinearHistogram):
            raise TypeError(
                f"histogram {name!r} already exists with power-of-two "
                "buckets"
            )
        return histogram

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Canonical (sorted-key) serialized form, safe to JSON-dump."""
        return {
            "counters": {
                name: self.counters[name].value
                for name in sorted(self.counters)
            },
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
        }


def merge_metrics(
    into: Dict[str, object], other: Dict[str, object]
) -> Dict[str, object]:
    """Merge one serialized registry into another, in place.

    Both arguments are ``MetricsRegistry.to_dict()`` shapes.  All the
    combining operations are integer adds (plus min/max), so merging is
    order-independent: serial and parallel campaigns aggregate to the
    same dict.  Power-of-two and log-linear histograms of the same name
    must agree on bucketing (``sub_bits``) — their bucket indices mean
    different things, so a mixed merge is an error, not a silent
    corruption.  Returns ``into``.
    """
    counters = into.setdefault("counters", {})
    for name, value in other.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + value
    histograms = into.setdefault("histograms", {})
    for name, h in other.get("histograms", {}).items():
        merged = histograms.get(name)
        if merged is None:
            histograms[name] = {
                "count": h["count"],
                "total": h["total"],
                "min": h["min"],
                "max": h["max"],
                "clamped": h.get("clamped", 0),
                **(
                    {"sub_bits": h["sub_bits"]} if "sub_bits" in h else {}
                ),
                "buckets": dict(h["buckets"]),
            }
            continue
        if merged.get("sub_bits") != h.get("sub_bits"):
            raise ValueError(
                f"histogram {name!r}: cannot merge sub_bits="
                f"{h.get('sub_bits')} into sub_bits={merged.get('sub_bits')}"
            )
        merged["count"] += h["count"]
        merged["total"] += h["total"]
        merged["clamped"] = merged.get("clamped", 0) + h.get("clamped", 0)
        for bound in ("min", "max"):
            ours, theirs = merged[bound], h[bound]
            if ours is None:
                merged[bound] = theirs
            elif theirs is not None:
                merged[bound] = (
                    min(ours, theirs) if bound == "min" else max(ours, theirs)
                )
        buckets = merged["buckets"]
        for key, count in h["buckets"].items():
            buckets[key] = buckets.get(key, 0) + count
    return into


def canonical_metrics(metrics: Dict[str, object]) -> Dict[str, object]:
    """Sort all keys so two equal registries serialize identically."""
    return {
        "counters": dict(sorted(metrics.get("counters", {}).items())),
        "histograms": {
            name: {
                "count": h["count"],
                "total": h["total"],
                "min": h["min"],
                "max": h["max"],
                "clamped": h.get("clamped", 0),
                **(
                    {"sub_bits": h["sub_bits"]} if "sub_bits" in h else {}
                ),
                "buckets": dict(
                    sorted(h["buckets"].items(), key=lambda kv: int(kv[0]))
                ),
            }
            for name, h in sorted(metrics.get("histograms", {}).items())
        },
    }
