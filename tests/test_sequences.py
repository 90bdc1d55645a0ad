"""Window means, matrix rows, and block schedules against direct-sum oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    CesaroC1,
    Explicit,
    Geometric,
    Identity,
    RowTable,
    Sequence,
    Shift,
    apply_matrix,
    build_lacunary,
    geometric_tail,
    transform_sequence,
    window_mean,
)
from lacunary.errors import (
    EmptySchedule,
    IndexOutOfHorizon,
    NotStrictlyIncreasing,
    PrefixExceedsBound,
    SupportExceedsHorizon,
    TailBoundUnsatisfiable,
)


def direct_window_oracle(values, m, n):
    """Independent window mean: plain Python summation over the window."""
    total = 0.0
    for j in range(n - 1, n + m):
        total += values[j]
    return total / (m + 1)


class TestWindowMean:
    def test_constant_sequence_gives_the_constant(self):
        x = Sequence(np.full(50, 3.25))
        for m, n in [(0, 1), (4, 3), (10, 40)]:
            assert window_mean(x, m, n) == pytest.approx(3.25, abs=1e-15)

    def test_arithmetic_prefix(self):
        x = Sequence(np.arange(1.0, 11.0))
        assert window_mean(x, 2, 1) == 2.0

    def test_window_of_length_one_is_the_entry(self):
        x = Sequence(np.array([5.0, -1.0, 2.0]))
        assert window_mean(x, 0, 2) == -1.0

    def test_alternating_long_window(self):
        vals = np.zeros(2000)
        vals[1::2] = 1.0
        x = Sequence(vals)
        m = 999
        for n in (1, 2, 7, 1000):
            got = window_mean(x, m, n)
            assert got == pytest.approx(direct_window_oracle(vals, m, n), abs=1e-12)
            assert abs(got - 0.5) <= 1.0 / (m + 1)

    def test_out_of_horizon_raises(self):
        x = Sequence(np.ones(10))
        with pytest.raises(IndexOutOfHorizon):
            window_mean(x, 5, 7)
        with pytest.raises(IndexOutOfHorizon):
            window_mean(x, 0, 11)

    @given(
        vals=st.lists(st.floats(-100, 100), min_size=5, max_size=30),
        wals=st.lists(st.floats(-100, 100), min_size=5, max_size=30),
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, vals, wals, a, b):
        n_common = min(len(vals), len(wals))
        xs = np.asarray(vals[:n_common])
        ys = np.asarray(wals[:n_common])
        x, y = Sequence(xs), Sequence(ys)
        combo = Sequence(a * xs + b * ys)
        m, n = n_common // 2, 1
        lhs = window_mean(combo, m, n)
        rhs = a * window_mean(x, m, n) + b * window_mean(y, m, n)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    @given(vals=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_mean_within_window_bounds(self, vals):
        x = Sequence(np.asarray(vals))
        m = len(vals) - 1
        got = window_mean(x, m, 1)
        assert min(vals) - 1e-9 <= got <= max(vals) + 1e-9


class TestSequenceType:
    def test_rejects_nan_and_empty(self):
        with pytest.raises(ValueError):
            Sequence(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            Sequence(np.array([]))

    def test_values_are_read_only(self):
        x = Sequence(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            x.values[0] = 9.0

    def test_one_based_access(self):
        x = Sequence(np.array([7.0, 8.0]))
        assert x.at(1) == 7.0 and x.at(2) == 8.0
        with pytest.raises(IndexOutOfHorizon):
            x.at(0)


class TestApplyMatrix:
    def test_identity_is_direct_indexing(self):
        x = Sequence(np.array([4.0, 5.0, 6.0]))
        for n in (1, 2, 3):
            assert apply_matrix(Identity(), x, n) == x.at(n)

    def test_cesaro_means(self):
        x = Sequence(np.array([1.0, 2.0, 3.0, 4.0]))
        assert apply_matrix(CesaroC1(), x, 4) == pytest.approx((1 + 2 + 3 + 4) / 4)
        assert apply_matrix(CesaroC1(), x, 1) == 1.0

    def test_shift_rows(self):
        x = Sequence(np.array([1.0, 2.0, 3.0]))
        assert apply_matrix(Shift(1), x, 1) == 2.0
        assert apply_matrix(Shift(-1), x, 3) == 2.0
        assert apply_matrix(Shift(-5), x, 2) == 0.0
        with pytest.raises(SupportExceedsHorizon):
            apply_matrix(Shift(1), x, 3)

    def test_row_table(self):
        A = RowTable((((1, 0.5), (3, 0.5)),))
        x = Sequence(np.array([2.0, 100.0, 4.0]))
        assert apply_matrix(A, x, 1) == 3.0
        with pytest.raises(SupportExceedsHorizon):
            apply_matrix(A, x, 2)
        short = Sequence(np.array([2.0, 100.0]))
        with pytest.raises(SupportExceedsHorizon):
            apply_matrix(A, short, 1)

    def test_row_generator_matches_truncated_sum(self):
        A = geometric_tail(decay=0.5, x_bound=1.0)
        vals = np.sin(np.arange(1, 101)) * 0.9
        x = Sequence(vals)
        n = 3
        oracle = sum(0.5 * 0.5 ** (k - n) * vals[k - 1] for k in range(n, 101))
        assert apply_matrix(A, x, n, tol=1e-9) == pytest.approx(oracle, abs=1e-12)

    def test_row_generator_certifies_tail(self):
        A = geometric_tail(decay=0.5, x_bound=1.0)
        x = Sequence(np.ones(10))
        # tail bound at horizon 10 for row 1 is 0.5**10 ~ 1e-3; ask for more
        with pytest.raises(TailBoundUnsatisfiable):
            apply_matrix(A, x, 1, tol=1e-6)

    def test_row_generator_enforces_declared_bound(self):
        A = geometric_tail(decay=0.5, x_bound=1.0)
        x = Sequence(np.full(100, 2.0))
        with pytest.raises(PrefixExceedsBound):
            apply_matrix(A, x, 1, tol=1e-3)


class TestTransformSequence:
    def test_identity_roundtrip(self):
        x = Sequence(np.array([1.0, -2.0, 3.5]))
        z = transform_sequence(Identity(), x, 3)
        assert np.array_equal(z.values, x.values)

    def test_cesaro_of_ones_is_ones(self):
        x = Sequence(np.full(20, 1.0))
        z = transform_sequence(CesaroC1(), x, 20)
        assert np.allclose(z.values, 1.0, rtol=0, atol=1e-15)

    def test_cesaro_of_alternating_hits_half(self):
        vals = np.zeros(1000)
        vals[1::2] = 1.0
        x = Sequence(vals)
        z = transform_sequence(CesaroC1(), x, 1000)
        oracle = sum(vals[:1000]) / 1000
        assert z.at(1000) == pytest.approx(oracle, abs=1e-15)
        assert z.at(1000) == pytest.approx(0.5, abs=1e-15)

    def test_error_reports_failing_row(self):
        x = Sequence(np.ones(5))
        with pytest.raises(SupportExceedsHorizon, match="n=6"):
            transform_sequence(CesaroC1(), x, 6)


class TestBuildLacunary:
    def test_geometric_powers_of_two(self):
        s = build_lacunary(Geometric(base=1, ratio=2, count=10))
        assert s.cut_points == tuple(0 if r == 0 else 2**r for r in range(11))
        assert all(phi == 2.0 for phi in s.ratios)
        assert list(s.block_lengths[1:]) == [2 ** (r - 1) for r in range(2, 11)]

    def test_explicit_arithmetic(self):
        s = build_lacunary(Explicit((0, 2, 4, 8, 16, 32)))
        assert list(s.block_lengths) == [2, 2, 4, 8, 16]
        assert s.ratios == (2.0, 2.0, 2.0, 2.0)

    def test_not_strictly_increasing(self):
        with pytest.raises(NotStrictlyIncreasing):
            build_lacunary(Explicit((0, 3, 2)))
        with pytest.raises(NotStrictlyIncreasing):
            build_lacunary(Explicit((1, 2, 3)))

    def test_empty_schedule(self):
        with pytest.raises(EmptySchedule):
            build_lacunary(Explicit((0,)))

    def test_blocks_partition_the_range(self):
        for rule in [
            Geometric(1, 2, 8),
            Geometric(3, 1.5, 12),
            Explicit((0, 1, 5, 6, 20)),
        ]:
            s = build_lacunary(rule)
            seen = []
            for r in range(1, s.num_blocks + 1):
                seen.extend(s.block(r))
            assert seen == list(range(1, s.last_index + 1))

    @given(
        steps=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12)
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, steps):
        cuts = [0]
        for step in steps:
            cuts.append(cuts[-1] + step)
        s = build_lacunary(Explicit(tuple(cuts)))
        covered = set()
        for r in range(1, s.num_blocks + 1):
            block = set(s.block(r))
            assert not (covered & block)
            covered |= block
        assert covered == set(range(1, s.last_index + 1))

    def test_growth_warnings_are_soft(self):
        s = build_lacunary(Explicit((0, 10, 12)))  # h decreases: warn, not reject
        assert any("nondecreasing" in w for w in s.warnings)
        s2 = build_lacunary(Explicit((0, 1)), h_floor=2)
        assert any("floor" in w for w in s2.warnings)
        assert build_lacunary(Geometric(1, 2, 6)).warnings == ()
