"""Seeded op lists for the three benchmark workloads.

An op is one `lacunary <command> ...` invocation: a command name, an
optional generated config (written to a file during set-up) and extra CLI
flags.  The `--seed` of a run selects one of `VARIANTS` input sets; each
input set has its own stored reference outputs (see check.py), so every
seed's outputs can be checked.  The same seed always gives the same ops.

Input sets differ in the seeds of the random sequences and in the
positions of spikes and shifts.  Sizes, exponents, radii and family
parameters are fixed, since they change the amount of work (the number of
norm-search steps, numpy's fast paths for some exponents), and a seed
should change the data, not the cost of an op.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

VARIANTS = 8


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    config: dict | None = None
    flags: tuple[str, ...] = field(default=())


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _random_sequence(rng: random.Random, horizon: int, radius: float = 0.3, density: float = 0.001) -> dict:
    return {
        "kind": "random_bounded",
        "horizon": horizon,
        "center": 0.0,
        "radius": radius,
        "exception_density": density,
        "exception_scale": 3.0,
        "seed": rng.randrange(2**31),
    }


def _geometric(count: int) -> dict:
    return {"kind": "geometric", "base": 1.0, "ratio": 2.0, "count": count}


def _power(p: float) -> dict:
    return {"kind": "power", "p": p}


# ---------------------------------------------------------------------------
# long-prefix: one classify at the scaled size k_R = 2**20, m_max = 32
# ---------------------------------------------------------------------------

LONG_PREFIX_BLOCKS = 20
LONG_PREFIX_M_MAX = 32


def long_prefix(rng: random.Random) -> list[Op]:
    k_r = 2**LONG_PREFIX_BLOCKS
    config = {
        "command": "classify",
        "sequence": _random_sequence(rng, k_r + LONG_PREFIX_M_MAX),
        "family": {"kind": "constant", "function": _power(2.0)},
        "schedule": _geometric(LONG_PREFIX_BLOCKS),
        "matrix": {"kind": "identity"},
        "space": {"alpha": 1.0, "epsilon": 1e-3, "L": 0.0, "m_max": LONG_PREFIX_M_MAX},
        "verdict": {"tol": 1e-3},
    }
    return [Op("classify-k2e20", "classify", config)]


# ---------------------------------------------------------------------------
# corpus: one inclusion run over a seeded corpus plus both constructions
# ---------------------------------------------------------------------------

CORPUS_SIZE = 50
CORPUS_BLOCKS = 16
CORPUS_M_MAX = 2


def corpus(rng: random.Random) -> list[Op]:
    config = {
        "command": "inclusion",
        "theorems": ["T31", "T33", "T35", "T36", "T37", "T38"],
        "beta": 1.0,
        "family": {"kind": "constant", "function": _power(2.0)},
        "schedule": _geometric(CORPUS_BLOCKS),
        "matrix": {"kind": "identity"},
        "space": {"alpha": 1.0, "epsilon": 1e-3, "L": 0.0, "m_max": CORPUS_M_MAX},
        "corpus": {
            "size": CORPUS_SIZE,
            "seed": rng.randrange(2**31),
            "center": 0.0,
            "radius": 0.3,
            "exception_density": 0.001,
            "exception_scale": 3.0,
            "include_thm37": True,
            "include_thm38": True,
            "construction_r_max": 14,
        },
    }
    return [Op("inclusion-50x16", "inclusion", config)]


# ---------------------------------------------------------------------------
# cli-mix: every command, matrix kind and family kind at small/medium sizes
# ---------------------------------------------------------------------------

MIX_NORMS_N = 100_000
MIX_CUSTOM_NORMS_N = 1_000
MIX_BLOCKS = 12
MIX_TAIL_BLOCKS = 11
MIX_M_MAX = 4


def _norms(rng: random.Random, family: dict, horizon: int) -> dict:
    return {
        "command": "norms",
        "sequence": _random_sequence(rng, horizon, radius=1.0),
        "family": family,
        "complementary": {"indices": [1, 2, 3], "v_values": [0.5, 1.0, 2.0], "u_max": 1e3},
        "delta2": {"a": 1.0, "k_max": 32},
    }


def _classify(rng: random.Random, family: dict, matrix: dict, blocks: int, lookahead: int = 0, **extra) -> dict:
    doc = {
        "command": "classify",
        "sequence": _random_sequence(rng, 2**blocks + MIX_M_MAX + lookahead),
        "family": family,
        "schedule": _geometric(blocks),
        "matrix": matrix,
        "space": {"alpha": 1.0, "epsilon": 1e-3, "L": 0.0, "m_max": MIX_M_MAX},
        "verdict": {"tol": 1e-3},
    }
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key] = {**doc[key], **value}
        else:
            doc[key] = value
    return doc


CUSTOM_FAMILY = {
    "kind": "custom",
    "functions": [
        {"kind": "table", "knots": [[0.0, 0.0], [1.0, 1.5], [2.0, 4.5]]},
        {"kind": "scaled_power", "p": 2.0, "c": 0.75},
        {"kind": "power_over_p", "p": 3.0},
        _power(2.5),
    ],
}
EXPONENTS = [1.5, 2.5, 2.0, 3.0]


def cli_mix(rng: random.Random) -> list[Op]:
    k_rows = 2**MIX_BLOCKS + MIX_M_MAX
    spikes = {str(rng.randrange(1, 2**MIX_BLOCKS)): float(rng.randrange(2, 50)) for _ in range(8)}
    return [
        Op("norms-power", "norms", _norms(rng, {"kind": "constant", "function": _power(2.5)}, MIX_NORMS_N)),
        Op("norms-index-power", "norms", _norms(rng, {"kind": "index_power", "exponents": EXPONENTS}, MIX_NORMS_N)),
        Op("norms-custom", "norms", _norms(rng, CUSTOM_FAMILY, MIX_CUSTOM_NORMS_N)),
        Op("classify-cesaro", "classify", _classify(
            rng, {"kind": "constant", "function": _power(2.0)}, {"kind": "cesaro_c1"}, MIX_BLOCKS)),
        Op("classify-shift-index-scaled", "classify", _classify(
            rng, {"kind": "index_scaled"}, {"kind": "shift", "offset": rng.randrange(1, 4)}, MIX_BLOCKS, lookahead=3)),
        Op("classify-row-table-spike", "classify", _classify(
            rng,
            {"kind": "spike", "slopes": spikes, "default_slope": 1.0},
            {"kind": "row_table", "rows": [[[n, 0.5], [n + 1, 0.5]] for n in range(1, k_rows + 1)]},
            MIX_BLOCKS,
            lookahead=1,
        )),
        Op("classify-geometric-tail-index-power", "classify", _classify(
            rng,
            {"kind": "index_power", "exponents": EXPONENTS},
            {"kind": "geometric_tail", "decay": 0.5, "x_bound": 2.0},
            MIX_TAIL_BLOCKS,
            lookahead=64,
            space={"exponents": {"kind": "constant", "value": 2.0}},
        )),
        Op("classify-custom", "classify", _classify(rng, CUSTOM_FAMILY, {"kind": "identity"}, MIX_TAIL_BLOCKS)),
        Op("classify-raw-flags", "classify", _classify(
            rng, {"kind": "constant", "function": _power(2.0)}, {"kind": "identity"}, MIX_BLOCKS, flag_mode="raw")),
        Op("classify-preset-thm37", "classify", None, ("--preset", "thm37-default")),
        Op("counterexample-thm37", "counterexample", None, ("--preset", "thm37-default", "--strict")),
        Op("counterexample-thm38", "counterexample", None, ("--preset", "thm38-default", "--strict")),
        Op("inclusion-small", "inclusion", {
            "command": "inclusion",
            "schedule": _geometric(8),
            "space": {"m_max": MIX_M_MAX},
            "corpus": {"size": 6, "seed": rng.randrange(2**31), "radius": 0.3,
                       "exception_density": 0.01},
        }),
    ]


WORKLOADS = {"long-prefix": long_prefix, "corpus": corpus, "cli-mix": cli_mix}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The op cycle of `workload` for `seed`; identical for identical seeds."""
    return WORKLOADS[workload](random.Random(f"{workload}/{variant_of(seed)}"))
