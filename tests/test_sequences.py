"""Window means, matrix rows, and block schedules against direct-sum oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    CesaroC1,
    Explicit,
    Geometric,
    GeometricTail,
    Identity,
    LacunarySchedule,
    Sequence,
    Shift,
    build_lacunary,
    transform_sequence,
)
from lacunary.errors import (
    EmptySchedule,
    LacunaryError,
    NonFiniteTransform,
    NotStrictlyIncreasing,
    PrefixExceedsBound,
    SupportExceedsHorizon,
    TailBoundUnsatisfiable,
)
from reference import row_table, window_mean


class TestWindowMean:
    """The direct window mean that the engine's tests use as their reference."""

    def test_constant_sequence_gives_the_constant(self):
        x = Sequence(np.full(50, 3.25))
        for m, n in [(0, 1), (4, 3), (10, 40)]:
            assert window_mean(x.values, m, n) == pytest.approx(3.25, abs=1e-15)

    def test_arithmetic_prefix(self):
        x = Sequence(np.arange(1.0, 11.0))
        assert window_mean(x.values, 2, 1) == 2.0

    def test_window_of_length_one_is_the_entry(self):
        x = Sequence(np.array([5.0, -1.0, 2.0]))
        assert window_mean(x.values, 0, 2) == -1.0

    def test_alternating_long_window(self):
        vals = np.zeros(2000)
        vals[1::2] = 1.0
        x = Sequence(vals)
        m = 999
        for n in (1, 2, 7, 1000):
            got = window_mean(vals, m, n)
            assert got == pytest.approx(np.mean(vals[n - 1 : n + m]), abs=1e-12)
            assert abs(got - 0.5) <= 1.0 / (m + 1)

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
        lhs = window_mean(combo.values, m, n)
        rhs = a * window_mean(x.values, m, n) + b * window_mean(y.values, m, n)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    @given(vals=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_mean_within_window_bounds(self, vals):
        x = Sequence(np.asarray(vals))
        m = len(vals) - 1
        got = window_mean(x.values, m, 1)
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

    def test_constructor_copies_its_input(self):
        source = np.array([1.0, 2.0])
        x = Sequence(source)
        assert not np.shares_memory(x.values, source)
        source[0] = 9.0
        assert x.values[0] == 1.0
        assert Sequence([1, 2]).values.dtype == np.float64

    def test_adopt_takes_the_array_and_keeps_every_check(self):
        made = np.array([1.0, 2.0])
        x = Sequence._adopt(made)
        assert x.values is made and not made.flags.writeable
        for bad in (np.array([1.0, np.inf]), np.array([]), np.ones((2, 2))):
            with pytest.raises(ValueError):
                Sequence._adopt(bad)


    def test_read_and_prefix_are_views_of_the_checked_prefix(self):
        x = Sequence(np.arange(1.0, 11.0))
        out = np.full(3, np.nan)
        got = x.read(2, 5, out=out)
        assert got.tolist() == [3.0, 4.0, 5.0] and np.shares_memory(got, x.values)
        assert np.isnan(out).all()  # an array-backed read leaves `out` alone
        head = x.prefix(4)
        assert head.horizon == 4 and np.shares_memory(head.values, x.values)
        assert not head.values.flags.writeable
        for a, b in ((-1, 2), (3, 2), (0, 11)):
            with pytest.raises(IndexError):
                x.read(a, b)


def row_by_row(row, x, out_len, tol):
    """Reference transform: one row at a time, errors tagged with the failing row."""
    out = np.empty(out_len)
    for n in range(1, out_len + 1):
        try:
            out[n - 1] = row(x, n, tol)
        except (SupportExceedsHorizon, TailBoundUnsatisfiable) as exc:
            raise type(exc)(f"at output index n={n}: {exc}") from exc
    return out


def identity_row(x, n, tol):
    if n > x.size:
        raise SupportExceedsHorizon(f"row {n} needs x_{n}, horizon is {x.size}")
    return float(x[n - 1])


def cesaro_row(x, n, tol):
    if n > x.size:
        raise SupportExceedsHorizon(f"row {n} needs x_1..x_{n}, horizon is {x.size}")
    return float(np.sum(x[:n]) / n)


def shift_row(d):
    def row(x, n, tol):
        k = n + d
        if k < 1:
            return 0.0
        if k > x.size:
            raise SupportExceedsHorizon(f"row {n} needs x_{k}, horizon is {x.size}")
        return float(x[k - 1])

    return row


def row_table_row(rows):
    def row(x, n, tol):
        if n > len(rows):
            raise SupportExceedsHorizon(f"row {n} not defined (table has {len(rows)} rows)")
        total = 0.0
        for k, a in sorted(rows[n - 1]):
            if k > x.size:
                raise SupportExceedsHorizon(f"row {n} has support at k={k}, horizon is {x.size}")
            total += a * x[k - 1]
        return total

    return row


COLUMNS = st.sampled_from([1, 2, 7, 2**63 - 1]) | st.sampled_from([0, -3, 2**63, 2**70])
COEFFICIENTS = st.sampled_from([0.5, -1.0, 0.0, 1]) | st.sampled_from([math.inf, -math.inf, math.nan])


def first_offending_pair(rows):
    """The message of RowTable's checks for the first bad (k, a) pair in row order, or None."""
    for n, row in enumerate(rows, start=1):
        for k, a in row:
            if k < 1:
                return f"row {n}: column index {k} < 1"
            if k > 2**63 - 1:
                return f"row {n}: column index {k} is past int64"
            if not math.isfinite(a):
                return f"row {n}: coefficient at k={k} not finite"
    return None


def geometric_row(decay, x_bound):
    """The full coefficient row (1-decay) * decay**(k-n), k >= n, summed against x."""

    def row(x, n, tol):
        observed = float(np.max(np.abs(x)))
        if observed > x_bound * (1 + 1e-12):
            raise PrefixExceedsBound(f"observed {observed}")
        j = x.size
        tail = x_bound * decay ** (j - n + 1) if j >= n else x_bound
        if tail >= tol:
            raise TailBoundUnsatisfiable(f"row {n}: tail bound {tail:.3g}")
        ks = np.arange(1, j + 1)
        coeffs = np.where(ks >= n, (1 - decay) * decay ** np.maximum(ks - n, 0), 0.0)
        return float(np.sum(coeffs * x))

    return row


def outcome(fn):
    """(values, None) on success, (None, (error class, first failing n)) on a LacunaryError."""
    try:
        return fn(), None
    except LacunaryError as exc:
        failing = re.search(r"at output index n=(\d+):", str(exc))
        return None, (type(exc), failing and int(failing.group(1)))


@st.composite
def prefixes(draw):
    """A seeded prefix of length 1..4096 and an out_len on either side of its horizon."""
    N = draw(st.integers(1, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    out_len = draw(st.one_of(st.integers(1, N), st.integers(N + 1, N + 8)))
    return rng, rng.uniform(-scale, scale, N), out_len


class TestTransformAgainstRowByRow:
    """Whole-prefix transforms against the row-by-row reference sums."""

    def check(self, A, row, x, out_len, tol=1e-12, rel=None):
        got, got_err = outcome(lambda: transform_sequence(A, Sequence(x), out_len, tol).values)
        want, want_err = outcome(lambda: row_by_row(row, x, out_len, tol))
        assert got_err == want_err
        if want is None:
            return
        if rel is None:
            assert got.tobytes() == want.tobytes()
        else:
            scale = transform_sequence(A, Sequence(np.abs(x)), out_len, tol).values
            assert np.all(np.abs(got - want) <= rel * scale)

    @given(data=prefixes(), d=st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_identity_and_shift_bitwise(self, data, d):
        _, x, out_len = data
        self.check(Identity(), identity_row, x, out_len)
        self.check(Shift(d), shift_row(d), x, out_len)

    @given(data=prefixes(), extra_rows=st.integers(-4, 4), planted=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_row_table_bitwise(self, data, extra_rows, planted):
        rng, x, out_len = data
        rows = []
        for _ in range(max(1, out_len + extra_rows)):
            width = int(rng.integers(0, 4))
            cols = rng.integers(1, x.size + 1, width)
            rows.append(list(zip(cols.tolist(), rng.uniform(-2, 2, width).tolist())))
        if planted:  # one column past the horizon
            rows[int(rng.integers(0, len(rows)))].append((x.size + 1, 1.0))
        A = row_table(rows)
        self.check(A, row_table_row(rows), x, out_len)

    @given(rows=st.lists(st.lists(st.tuples(COLUMNS, COEFFICIENTS), max_size=3), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_row_table_rejects_the_first_offending_pair(self, rows):
        """The whole-array checks name the pair a pass over the pairs in order meets first."""
        expected = first_offending_pair(rows)
        if expected is None:
            row_table(rows)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                row_table(rows)

    @given(data=prefixes())
    @settings(max_examples=40, deadline=None)
    def test_cesaro_within_relative_sum(self, data):
        _, x, out_len = data
        self.check(CesaroC1(), cesaro_row, x, out_len, rel=1e-12)

    @given(
        data=prefixes(),
        decay=st.floats(0.05, 0.95),
        bound_factor=st.sampled_from([0.5, 1.0, 2.0]),
        tol=st.sampled_from([1e-12, 1e-6, 1e-3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_geometric_tail_within_relative_sum(self, data, decay, bound_factor, tol):
        _, x, out_len = data
        x_bound = bound_factor * float(np.max(np.abs(x)))
        A = GeometricTail(decay, x_bound)
        self.check(A, geometric_row(decay, x_bound), x, out_len, tol, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_geometric_tail_past_the_row_raises_no_overflow(self):
        x = Sequence(np.sin(np.arange(1, 2**11 + 69)) * 1.9)
        z = transform_sequence(GeometricTail(0.5, 2.0), x, 2**11 + 4)
        want = row_by_row(geometric_row(0.5, 2.0), x.values, 2**11 + 4, 1e-12)
        assert np.allclose(z.values, want, rtol=0, atol=1e-15)


class TestApplyMatrix:
    """Single rows A_n(x), read from `transform_sequence`."""

    def test_identity_is_direct_indexing(self):
        x = Sequence(np.array([4.0, 5.0, 6.0]))
        for n in (1, 2, 3):
            assert transform_sequence(Identity(), x, n).values[-1] == x.values[n - 1]

    def test_cesaro_means(self):
        x = Sequence(np.array([1.0, 2.0, 3.0, 4.0]))
        assert transform_sequence(CesaroC1(), x, 4).values[-1] == pytest.approx((1 + 2 + 3 + 4) / 4)
        assert transform_sequence(CesaroC1(), x, 1).values[-1] == 1.0

    def test_shift_rows(self):
        x = Sequence(np.array([1.0, 2.0, 3.0]))
        assert transform_sequence(Shift(1), x, 1).values[-1] == 2.0
        assert transform_sequence(Shift(-1), x, 3).values[-1] == 2.0
        assert transform_sequence(Shift(-5), x, 2).values[-1] == 0.0
        with pytest.raises(SupportExceedsHorizon):
            transform_sequence(Shift(1), x, 3)

    def test_row_table(self):
        A = row_table((((1, 0.5), (3, 0.5)),))
        x = Sequence(np.array([2.0, 100.0, 4.0]))
        assert transform_sequence(A, x, 1).values[-1] == 3.0
        with pytest.raises(SupportExceedsHorizon):
            transform_sequence(A, x, 2)
        short = Sequence(np.array([2.0, 100.0]))
        with pytest.raises(SupportExceedsHorizon):
            transform_sequence(A, short, 1)

    def test_row_generator_matches_truncated_sum(self):
        A = GeometricTail(decay=0.5, x_bound=1.0)
        vals = np.sin(np.arange(1, 101)) * 0.9
        x = Sequence(vals)
        n = 3
        oracle = sum(0.5 * 0.5 ** (k - n) * vals[k - 1] for k in range(n, 101))
        assert transform_sequence(A, x, n, tol=1e-9).values[-1] == pytest.approx(oracle, abs=1e-12)

    def test_row_generator_certifies_tail(self):
        A = GeometricTail(decay=0.5, x_bound=1.0)
        x = Sequence(np.ones(10))
        # tail bound at horizon 10 for row 1 is 0.5**10 ~ 1e-3; ask for more
        with pytest.raises(TailBoundUnsatisfiable):
            transform_sequence(A, x, 1, tol=1e-6)

    def test_row_generator_enforces_declared_bound(self):
        A = GeometricTail(decay=0.5, x_bound=1.0)
        x = Sequence(np.full(100, 2.0))
        with pytest.raises(PrefixExceedsBound):
            transform_sequence(A, x, 1, tol=1e-3)


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
        assert z.values[-1] == pytest.approx(oracle, abs=1e-15)
        assert z.values[-1] == pytest.approx(0.5, abs=1e-15)

    def test_error_reports_failing_row(self):
        x = Sequence(np.ones(5))
        with pytest.raises(SupportExceedsHorizon, match="n=6"):
            transform_sequence(CesaroC1(), x, 6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "A,n",
        [
            (CesaroC1(), 2),
            (row_table((((1, 1.0), (2, 1.0)),) * 3), 1),
            (row_table((((1, 1.0),), ((1, 1.0), (2, -1.0)), ((1, 10.0), (3, -10.0)))), 3),
        ],
    )
    def test_overflowing_row_is_an_error_naming_it(self, A, n):
        """inf and NaN rows (a sum past float64, or inf - inf) end in NonFiniteTransform."""
        x = Sequence(np.array([1e308, 1e308, 1e308]))
        with pytest.raises(NonFiniteTransform, match=f"^at output index n={n}: row {n} "):
            transform_sequence(A, x, 3)


class TestBuildLacunary:
    def test_geometric_powers_of_two(self):
        s = build_lacunary(Geometric(base=1, ratio=2, count=10))
        assert s.cut_points == tuple(0 if r == 0 else 2**r for r in range(11))
        c = s.cut_points
        assert all(c[r] / c[r - 1] == 2.0 for r in range(2, len(c)))
        assert list(s.block_lengths[1:]) == [2 ** (r - 1) for r in range(2, 11)]

    def test_explicit_arithmetic(self):
        s = build_lacunary(Explicit((0, 2, 4, 8, 16, 32)))
        assert list(s.block_lengths) == [2, 2, 4, 8, 16]
        assert all(b == 2 * a for a, b in zip(s.cut_points[1:], s.cut_points[2:]))

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
            for a, h in zip(s.cut_points, s.block_lengths):
                seen.extend(range(a + 1, a + h + 1))
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
        for a, h in zip(s.cut_points, s.block_lengths):
            block = set(range(a + 1, a + h + 1))
            assert not (covered & block)
            covered |= block
        assert covered == set(range(1, s.last_index + 1))

    def test_growth_warnings_are_soft(self):
        s = build_lacunary(Explicit((0, 10, 12)))  # h decreases: warn, not reject
        assert any("nondecreasing" in w for w in s.warnings)
        s2 = build_lacunary(Explicit((0, 1)))
        assert any("floor" in w for w in s2.warnings)
        assert build_lacunary(Geometric(1, 2, 6)).warnings == ()

    def test_a_schedule_built_directly_carries_its_warnings(self):
        """The warnings come from the cut points, however the schedule is made, and do not
        take part in equality."""
        s = LacunarySchedule((0, 10, 12))
        assert s.warnings == ("block lengths are not nondecreasing",)
        assert s == build_lacunary(Explicit((0, 10, 12)))
        assert LacunarySchedule((0, 1, 3, 7)).warnings == ()
