"""Config tables: every kind materializes and builds; defaults land in the echo."""

import pytest

from lacunary.config import (
    CONSTRUCTION,
    EXPONENTS,
    FAMILY,
    FUNCTION,
    MATRIX,
    REQUIRED,
    RHO,
    SCHEDULE,
    SEQUENCE,
    materialize,
    validate_config,
)

# a value for every required field of every kind
REQUIRED_VALUES = {
    "knots": [[0, 0], [1, 1]],
    "exponents": [2],
    "functions": [{"kind": "linear"}],
    "cut_points": [0, 2, 4],
    "rows": [[[1, 1.0]]],
    "values": [1.0, 2.0],
    "horizon": 4,
}

KINDS = [
    (component, kind)
    for component in (FUNCTION, FAMILY, SCHEDULE, MATRIX, RHO, EXPONENTS, SEQUENCE, CONSTRUCTION)
    for kind in component.kinds
]


@pytest.mark.parametrize("component,kind", KINDS, ids=[f"{c.name}-{k}" for c, k in KINDS])
def test_every_kind_materializes_and_builds(component, kind):
    fields = component.kinds[kind].fields
    doc = {component.key: kind}
    doc.update((name, REQUIRED_VALUES[name]) for name, f in fields.items() if f.default is REQUIRED)
    echo = component.materialize(doc)
    assert set(echo) <= component.names
    assert component.materialize(echo) == echo
    component.build(echo)


def test_integer_numbers_echo_as_floats():
    doc = {
        "command": "norms",
        "sequence": {"kind": "explicit", "values": [1]},
        "family": {"kind": "constant", "function": {"kind": "scaled_power", "p": 2, "c": 3}},
    }
    validate_config(doc, "norms")
    function = materialize(doc, "norms")["family"]["function"]
    assert function == {"kind": "scaled_power", "p": 2.0, "c": 3.0}
    assert all(isinstance(function[k], float) for k in ("p", "c"))


def test_inclusion_defaults_and_seed_override():
    doc = {"command": "inclusion", "space": {"L": 0.25}}
    validate_config(doc, "inclusion")
    echo = materialize(doc, "inclusion", seed=7)
    assert echo["corpus"]["center"] == 0.25
    assert echo["corpus"]["seed"] == 7
    assert echo["space"]["alpha"] == 0.5
    assert echo["schedule"] == {"kind": "geometric", "base": 1.0, "ratio": 2.0, "count": 8}
