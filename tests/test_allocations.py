"""Allocation budgets: each prefix-sized array exists once on the way to the engine,
and the engine reuses its buffers from one sequence to the next.

tracemalloc traces numpy's data allocations, so an extra prefix-sized copy
shows up here as a peak above its budget, in units of one prefix of float64.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np

from lacunary import (
    BlockEngine,
    ConstantFamily,
    ExponentSequence,
    Geometric,
    Identity,
    LinearSlope,
    Power,
    RhoSequence,
    Sequence,
    SpaceParams,
    build_lacunary,
    random_bounded_sequence,
)
from lacunary.cli import main
from lacunary.sequences import transform_sequence

N = 1 << 16
PREFIX = 8 * N  # bytes of one float64 prefix


def traced_peak(fn, *args):
    """(result, peak bytes allocated while `fn(*args)` ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_random_draw_peaks_near_two_prefixes():
    """The uniform draw becomes the values; both exception draws share one buffer."""
    rng = np.random.default_rng(5)
    x, peak = traced_peak(random_bounded_sequence, rng, N, 0.0, 0.3, 0.001, 3.0)
    assert x.horizon == N
    assert peak <= 2.5 * PREFIX, f"peak {peak / PREFIX:.2f} prefixes"


def test_identity_transform_is_a_view_of_x():
    x = Sequence(np.linspace(-1.0, 1.0, N))
    z = transform_sequence(Identity(), x, N - 3)
    assert np.shares_memory(z.values, x.values)
    assert not z.values.flags.writeable


LONG = 1 << 18  # eight tiles of the engine, so one tile is an eighth of a prefix
LONG_PREFIX = 8 * LONG


def _long_engine_inputs():
    schedule = build_lacunary(Geometric(1, 2, 18))  # k_R = 2**18 = LONG
    rng = np.random.default_rng(3)
    xs = [Sequence(rng.uniform(-1.0, 1.0, LONG + 2)) for _ in range(2)]
    p = SpaceParams(family=ConstantFamily(Power(2.0)), schedule=schedule, L=0.25, m_max=2)
    return xs, p


def test_one_space_engine_holds_y_and_its_cumsum():
    """y and its cumulative sum, two flag workspaces and tile temporaries; no terms workspace."""
    (x, _), p = _long_engine_inputs()
    stats, peak = traced_peak(lambda: BlockEngine([p])(x))
    assert len(stats) == 1
    # y and c are a prefix each, the flags a quarter together: a terms array would add a prefix
    assert peak <= 2.5 * LONG_PREFIX, f"peak {peak / LONG_PREFIX:.2f} prefixes"


def test_engine_call_reuses_its_buffers():
    """A second call on a same-shape sequence allocates no prefix-sized array (Identity)."""
    (x1, x2), p = _long_engine_inputs()
    plain = SpaceParams(
        family=ConstantFamily(LinearSlope(1.0)), schedule=p.schedule, L=p.L, m_max=p.m_max,
        rho=RhoSequence(constant=0.7), exponents=ExponentSequence(constant=1.5), alpha=0.6,
    )
    engine = BlockEngine([p, plain, replace(p, alpha=0.5)])
    engine(x1)
    stats, peak = traced_peak(engine, x2)
    assert len(stats) == 3
    assert peak <= 0.25 * LONG_PREFIX, f"peak {peak / LONG_PREFIX:.2f} prefixes"


def test_inclusion_peak_does_not_grow_with_the_corpus(tmp_path):
    """The corpus is streamed: one prefix at a time is alive, whatever its size."""

    def run(size):
        doc = {
            "command": "inclusion",
            "theorems": ["T31"],
            "schedule": {"kind": "geometric", "count": 16},  # k_R = 2**16 = N
            "space": {"m_max": 0},
            "corpus": {"size": size, "exception_density": 0.001},
        }
        cfg = tmp_path / f"size{size}.json"
        cfg.write_text(json.dumps(doc))
        return traced_peak(main, ["inclusion", "--config", str(cfg), "--out", str(tmp_path / str(size))])

    (code5, peak5), (code20, peak20) = run(5), run(20)
    assert code5 == code20 == 0
    assert peak20 - peak5 <= 1.5 * PREFIX, f"peaks {peak5 / PREFIX:.2f} and {peak20 / PREFIX:.2f} prefixes"
