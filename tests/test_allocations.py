"""Allocation budgets: each prefix-sized array exists once on the way to the engine,
the engine streams over tiles and holds no array of the prefix's length, and the
norm searches evaluate every step in one workspace.

tracemalloc traces numpy's data allocations, so an extra prefix-sized copy
shows up here as a peak above its budget, in units of one prefix of float64.
"""

import gc
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lacunary import (
    BlockEngine,
    ConstantFamily,
    ExponentSequence,
    Geometric,
    Identity,
    IndexPowerFamily,
    LinearSlope,
    Power,
    PrefixNorms,
    RhoSequence,
    Sequence,
    SpaceParams,
    build_lacunary,
    random_bounded_sequence,
)
from lacunary.cli import main
from lacunary.config import MATRIX, materialize, validate_config
from lacunary.convergence import BUNDLES, MODULAR_FLAGS, RAW_FLAGS, STRONG
from lacunary import convergence
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


def test_random_draw_values_are_drawn_in_place():
    """`values` of a drawn prefix is one array; each tile's three streams are drawn into its
    own slice of it, so the draw needs no buffer of its own."""
    rng = np.random.default_rng(5)
    values, peak = traced_peak(lambda: random_bounded_sequence(rng, LONG, 0.0, 0.3, 0.001, 3.0).values)
    assert values.size == LONG
    # the values are a prefix; a tile-wide draw buffer would add an eighth, a prefix-sized one a prefix
    assert peak <= 1.1 * LONG_PREFIX, f"peak {peak / LONG_PREFIX:.2f} prefixes"


def test_engine_over_a_drawn_prefix_never_draws_it_whole():
    """The engine reads a drawn prefix tile by tile into its cumulative-sum workspace: the
    draw and the engine together hold tile-wide arrays only."""
    schedule = build_lacunary(Geometric(1, 2, 18))  # k_R = 2**18 = LONG
    p = SpaceParams(family=ConstantFamily(Power(2.0)), schedule=schedule, m_max=2)

    def drawn_and_classified():
        x = random_bounded_sequence(np.random.default_rng(3), LONG + 2, 0.0, 0.3, 0.001, 3.0)
        return BlockEngine([(p, (STRONG, MODULAR_FLAGS))])(x)

    stats, peak = traced_peak(drawn_and_classified)
    assert list(stats[0]) == [STRONG, MODULAR_FLAGS]
    # a tile is an eighth of a prefix; drawing the prefix whole would add a prefix
    assert peak <= 0.5 * LONG_PREFIX, f"peak {peak / LONG_PREFIX:.2f} prefixes"


HUGE_DRAW = {"kind": "random_bounded", "horizon": 10**13, "radius": 0.3,
             "exception_density": 0.001, "seed": 11}  # 8e13 bytes, were it drawn whole


def test_classify_over_a_huge_draw_reads_only_the_schedule(tmp_path):
    """classify reads x_1..x_{k_R + m_max} of a drawn prefix, whatever its horizon."""
    doc = {"command": "classify", "sequence": HUGE_DRAW, "family": {"kind": "index_scaled"},
           "schedule": {"kind": "geometric", "count": 12}}
    cfg = tmp_path / "classify.json"
    cfg.write_text(json.dumps(doc))
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["horizon"] == 10**13


def test_norms_over_a_huge_draw_is_out_of_memory(tmp_path, capsys):
    """norms read the whole prefix, so the same draw cannot be made."""
    doc = {"command": "norms", "sequence": HUGE_DRAW, "family": {"kind": "index_scaled"}}
    cfg = tmp_path / "norms.json"
    cfg.write_text(json.dumps(doc))
    assert main(["norms", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: out of memory")


def test_one_space_engine_holds_only_tile_wide_workspaces():
    """The cumulative sum, the deviations and two flag workspaces, each a tile wide."""
    (x, _), p = _long_engine_inputs()
    stats, peak = traced_peak(lambda: BlockEngine([(p, BUNDLES)])(x))
    assert len(stats) == 1
    # a tile is an eighth of a prefix: one array of the prefix's length would add a prefix
    assert peak <= 0.6 * LONG_PREFIX, f"peak {peak / LONG_PREFIX:.2f} prefixes"


def test_engine_without_raw_flags_has_no_raw_flag_workspace():
    """The cumulative sum, the deviations and the modular flags; the raw flags are not asked for."""
    (x, _), p = _long_engine_inputs()
    _, with_raw = traced_peak(lambda: BlockEngine([(p, BUNDLES)])(x))
    stats, peak = traced_peak(lambda: BlockEngine([(p, (STRONG, MODULAR_FLAGS))])(x))
    assert list(stats[0]) == [STRONG, MODULAR_FLAGS]
    # the raw flags are a tile of bools, _TILE bytes
    assert peak <= with_raw - convergence._TILE // 2, f"peaks {peak} and {with_raw} bytes"


def test_index_power_engine_shares_the_exponents_past_its_list():
    """index_power binds the exponents of the tile that meets its list; the other tiles
    share one tile-wide array of the last exponent, so the engine holds two tiles of them."""
    (x, _), p = _long_engine_inputs()
    q = replace(p, family=IndexPowerFamily((1.5, 2.5, 2.0)))
    stats, peak = traced_peak(lambda: BlockEngine([(q, BUNDLES)])(x))
    assert len(stats) == 1
    # an exponent array per tile would add a prefix over the eight tiles
    assert peak <= 0.8 * LONG_PREFIX, f"peak {peak / LONG_PREFIX:.2f} prefixes"


def test_raw_flags_alone_bind_no_kernel(monkeypatch):
    """An engine asked only for the raw flags never binds or evaluates the family."""
    bound = []
    bind_tiles = IndexPowerFamily._bind_tiles

    def counted(self, bounds):
        bound.append(len(bounds))
        return bind_tiles(self, bounds)

    monkeypatch.setattr(IndexPowerFamily, "_bind_tiles", counted)
    (x, _), p = _long_engine_inputs()
    q = replace(p, family=IndexPowerFamily((1.5, 2.5, 2.0)))
    stats, peak = traced_peak(lambda: BlockEngine([(q, (RAW_FLAGS,))])(x))
    assert list(stats[0]) == [RAW_FLAGS]
    assert bound == []
    assert peak <= 0.5 * LONG_PREFIX, f"peak {peak / LONG_PREFIX:.3f} prefixes"
    BlockEngine([(q, (STRONG,))])(x)  # the family is bound once, to every tile, when terms are read
    assert bound == [LONG // convergence._TILE]


def test_plain_space_reads_the_deviations_in_place(monkeypatch):
    """The inclusion engine's plain-average space (M(u) = u, rho 1, exponents 1, read for
    the strong statistic) beside the family space read for every bundle: the plain group
    never calls its formula and adds no terms or modular-flag workspace to the family's."""
    calls = []
    formula = LinearSlope._formula

    def counted(self, out):
        calls.append(out.size)
        return formula(self, out)

    monkeypatch.setattr(LinearSlope, "_formula", counted)
    (x, _), p = _long_engine_inputs()
    plain = replace(p, family=ConstantFamily(LinearSlope(1.0)))
    _, alone = traced_peak(lambda: BlockEngine([(p, BUNDLES)])(x))
    stats, peak = traced_peak(lambda: BlockEngine([(p, BUNDLES), (plain, (STRONG,))])(x))
    assert [list(s) for s in stats] == [list(BUNDLES), [STRONG]]
    assert calls == []
    # a terms workspace is 8 * _TILE bytes and a flag workspace _TILE bytes; the plain
    # group adds only its (m_max + 1) x leaves sums and its result arrays
    assert peak - alone <= convergence._TILE // 4, f"peaks {peak} and {alone} bytes"


def test_engine_call_reuses_its_buffers():
    """A second call on a same-shape sequence allocates no prefix-sized array (Identity)."""
    (x1, x2), p = _long_engine_inputs()
    plain = SpaceParams(
        family=ConstantFamily(LinearSlope(1.0)), schedule=p.schedule, L=p.L, m_max=p.m_max,
        rho=RhoSequence(constant=0.7), exponents=ExponentSequence(constant=1.5), alpha=0.6,
    )
    engine = BlockEngine([(q, BUNDLES) for q in (p, plain, replace(p, alpha=0.5))])
    engine(x1)
    stats, peak = traced_peak(engine, x2)
    assert len(stats) == 3
    # the kernels run in place on the terms: a tile-sized temporary alone would be 0.125
    assert peak <= 0.05 * LONG_PREFIX, f"peak {peak / LONG_PREFIX:.3f} prefixes"


NORM_FAMILIES = pytest.mark.parametrize(
    "family, prefixes",
    [(ConstantFamily(Power(2.5)), 2), (IndexPowerFamily((1.5, 2.5, 2.0, 3.0)), 3)],
    ids=["constant-power", "index-power"],
)


@NORM_FAMILIES
@pytest.mark.parametrize(
    "search",
    [lambda norms: norms.luxemburg(), lambda norms: norms.amemiya().value],
    ids=["luxemburg_norm", "orlicz_norm"],
)
def test_norm_search_holds_abs_x_and_one_workspace(search, family, prefixes):
    """Every step of a search writes its scaled prefix into one workspace and evaluates there.

    |x| and the workspace are a prefix each; index_power's kernel also holds
    its exponent array.  A temporary per step would add a prefix.
    """
    x = random_bounded_sequence(np.random.default_rng(7), N, 0.0, 1.0, 0.001, 3.0)
    x.values  # drawn before tracing: the budget is the search's, not the draw's
    value, peak = traced_peak(lambda: search(PrefixNorms(family, x)))
    assert value
    assert peak <= (prefixes + 0.25) * PREFIX, f"peak {peak / PREFIX:.2f} prefixes"


@NORM_FAMILIES
def test_both_norm_searches_share_one_workspace(family, prefixes):
    """One PrefixNorms answers both searches in the budget of one: a workspace per search would add a prefix."""
    x = random_bounded_sequence(np.random.default_rng(7), N, 0.0, 1.0, 0.001, 3.0)
    x.values  # drawn before tracing: the budget is the searches', not the draw's

    def both_norms():
        norms = PrefixNorms(family, x)
        return norms.luxemburg(), norms.amemiya().value

    (lux, ame), peak = traced_peak(both_norms)
    assert lux and ame
    assert peak <= (prefixes + 0.25) * PREFIX, f"peak {peak / PREFIX:.2f} prefixes"


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


def test_warm_long_classify_holds_one_prefix(tmp_path):
    """A classify of the long-prefix shape (m_max = 32), after a first run: the drawn
    prefix, the draw's chunk and the engine's tile-wide workspaces."""
    doc = {
        "command": "classify",
        "sequence": {"kind": "random_bounded", "horizon": LONG + 32, "radius": 0.3,
                     "exception_density": 0.001, "seed": 11},
        "family": {"kind": "constant", "function": {"kind": "power", "p": 2.0}},
        "schedule": {"kind": "geometric", "count": 18},  # k_R = 2**18 = LONG
        "space": {"m_max": 32},
    }
    cfg = tmp_path / "classify.json"
    cfg.write_text(json.dumps(doc))
    argv = ["classify", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    code, peak = traced_peak(main, argv)
    assert code == 0
    # y, its cumulative sum or a draw buffer of the prefix's length would each add a prefix
    assert peak <= 1.6 * LONG_PREFIX, f"peak {peak / LONG_PREFIX:.2f} prefixes"


def test_echo_of_a_long_table_holds_no_object_per_row():
    """Validated, echoed and built, a 20 000-row table leaves a fixed number of gc-tracked
    objects alive once its parsed document is dropped: the echo holds flat columns and
    the table its arrays, never a list per row or pair."""

    def echo_and_build(rows):
        table = [[[n, 0.5], [n + 1, 1]] for n in range(1, rows + 1)]
        doc = json.loads(json.dumps({
            "command": "classify",
            "sequence": {"kind": "explicit", "values": [0.5] * (rows + 1)},
            "family": {"kind": "index_scaled"},
            "schedule": {"kind": "geometric"},
            "matrix": {"kind": "row_table", "rows": table},
        }))
        validate_config(doc, "classify")
        echo = materialize(doc, "classify")
        return echo, MATRIX.build(echo["matrix"])

    echo_and_build(10)  # the checks and echoes of the tables are compiled on first use
    gc.collect()
    before = len(gc.get_objects())
    kept = echo_and_build(20_000)
    gc.collect()
    alive = len(gc.get_objects()) - before
    assert kept and alive <= 200, f"{alive} gc-tracked objects alive"
