"""Histogram shapes: clamped counting, log-linear sub-buckets, merges."""

import pytest

from repro.observe.events import SCHEMA_VERSION
from repro.observe.metrics import (
    SUB_BUCKET_BITS,
    Histogram,
    LogLinearHistogram,
    MetricsRegistry,
    bucket_bounds,
    canonical_metrics,
    merge_metrics,
)


class TestClampedObservations:
    def test_negative_clamps_to_zero_and_counts(self):
        h = Histogram()
        h.observe(-5)
        h.observe(3)
        assert h.count == 2
        assert h.clamped == 1
        assert h.min == 0
        assert h.buckets.get(0) == 1  # the clamped sample landed in 0

    def test_clamped_serializes(self):
        h = Histogram()
        h.observe(-1)
        assert h.to_dict()["clamped"] == 1

    def test_pool_debug_raises_instead(self, engine):
        engine(pool_debug=True)
        h = Histogram()
        with pytest.raises(AssertionError, match="negative"):
            h.observe(-1)

    def test_merge_sums_clamped(self):
        a = Histogram()
        a.observe(-1)
        b = Histogram()
        b.observe(-2)
        b.observe(-3)
        merged = {"histograms": {"h": a.to_dict()}}
        merge_metrics(merged, {"histograms": {"h": b.to_dict()}})
        assert merged["histograms"]["h"]["clamped"] == 3

    def test_merge_tolerates_v1_serializations(self):
        # Pre-clamped (schema v1) dicts have no "clamped" key; merging
        # them must not KeyError and must treat them as 0.
        v1 = {"count": 1, "total": 4, "min": 4, "max": 4, "buckets": {"3": 1}}
        merged = {}
        merge_metrics(merged, {"histograms": {"h": dict(v1)}})
        merge_metrics(merged, {"histograms": {"h": dict(v1)}})
        assert merged["histograms"]["h"]["clamped"] == 0
        assert merged["histograms"]["h"]["count"] == 2

    def test_schema_version_bumped_for_clamped(self):
        assert SCHEMA_VERSION >= 2


class TestLogLinearHistogram:
    def test_small_values_exact(self):
        h = LogLinearHistogram()
        for v in range(1 << SUB_BUCKET_BITS):
            assert h._index(v) == v
            assert bucket_bounds(v, SUB_BUCKET_BITS) == (v, v)

    def test_bounds_invert_index(self):
        h = LogLinearHistogram()
        for v in [0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1025,
                  12_345, 1_200_000, 2**31 - 1, 2**40 + 7]:
            index = h._index(v)
            lower, upper = bucket_bounds(index, SUB_BUCKET_BITS)
            assert lower <= v <= upper, (v, index, lower, upper)

    def test_relative_error_bounded(self):
        h = LogLinearHistogram()
        for v in [40, 777, 9_999, 123_456, 10**9]:
            lower, upper = bucket_bounds(h._index(v), SUB_BUCKET_BITS)
            assert (upper - lower + 1) / lower <= 2 ** -SUB_BUCKET_BITS + 1e-9

    def test_indices_contiguous_and_monotone(self):
        h = LogLinearHistogram()
        indices = [h._index(v) for v in range(1 << (SUB_BUCKET_BITS + 3))]
        assert indices == sorted(indices)
        # No gaps: every index between first and last appears.
        assert set(indices) == set(range(indices[0], indices[-1] + 1))

    def test_serialization_carries_sub_bits(self):
        h = LogLinearHistogram()
        h.observe(1000)
        data = h.to_dict()
        assert data["sub_bits"] == SUB_BUCKET_BITS
        assert data["count"] == 1

    def test_registry_loglinear_and_name_conflict(self):
        reg = MetricsRegistry()
        ll = reg.loglinear("lat")
        assert isinstance(ll, LogLinearHistogram)
        assert reg.loglinear("lat") is ll
        reg.histogram("pow2")
        with pytest.raises(TypeError, match="power-of-two"):
            reg.loglinear("pow2")

    def test_merge_rejects_sub_bits_mismatch(self):
        pow2 = Histogram()
        pow2.observe(5)
        ll = LogLinearHistogram()
        ll.observe(5)
        merged = {"histograms": {"h": pow2.to_dict()}}
        with pytest.raises(ValueError, match="sub_bits"):
            merge_metrics(merged, {"histograms": {"h": ll.to_dict()}})

    def test_merge_is_order_independent(self):
        def build(values):
            h = LogLinearHistogram()
            for v in values:
                h.observe(v)
            return h.to_dict()

        parts = [build([1, 100]), build([50_000, -3]), build([7, 7, 9999])]
        ab = {}
        for part in parts:
            merge_metrics(ab, {"histograms": {"h": dict(part)}})
        ba = {}
        for part in reversed(parts):
            merge_metrics(ba, {"histograms": {"h": dict(part)}})
        assert canonical_metrics(ab) == canonical_metrics(ba)

    def test_canonical_preserves_shape_fields(self):
        h = LogLinearHistogram()
        h.observe(-1)
        h.observe(1_000_000)
        canon = canonical_metrics({"histograms": {"h": h.to_dict()}})
        out = canon["histograms"]["h"]
        assert out["sub_bits"] == SUB_BUCKET_BITS
        assert out["clamped"] == 1
