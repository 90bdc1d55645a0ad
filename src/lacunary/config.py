"""JSON run-configuration: one table per component kind.

Each config component (function, family, schedule, matrix, scalars,
sequence, space, verdict, construction) and each command-level section
(norms, classify, counterexample with its checks, inclusion with its
corpus) is a `Component`: a table that lists, once per kind, every field
with its JSON constraint and its default, plus the constructor of the
library object.  Three things are generated from these tables and nowhere
else:

  * the JSON schema of each command.  Kinds are closed: a field that
    belongs to another `kind` is rejected like any unknown key, and a
    missing required field fails at its `$.path`;
  * the echoed config: `materialize` fills every default into a fresh
    document, so re-running the echo reproduces the run byte for byte
    (timestamp aside).  Numbers are echoed as floats, integers as ints;
  * the library objects: `Component.build` turns an echoed section into
    its object and reports a rejected value as a ConfigError.

Tables are read top to bottom: `FUNCTION` first, the commands last.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import jsonschema
import numpy as np

from .convergence import MODULAR_FLAGS, RAW_FLAGS, SpaceParams
from .errors import ConfigError
from .experiments import THEOREMS, CounterexampleSpec, random_bounded_sequence
from .orlicz import (
    ConstantFamily,
    CustomFamily,
    ExpMinusOne,
    ExponentSequence,
    IndexPowerFamily,
    IndexScaledFamily,
    LinearSlope,
    Power,
    PowerOverP,
    RhoSequence,
    ScaledPower,
    SpikeFamily,
    Table,
)
from .sequences import (
    CesaroC1,
    Explicit,
    Geometric,
    Identity,
    RowTable,
    Sequence,
    Shift,
    geometric_tail,
)

DEFAULT_SEED = 12345

REQUIRED = object()  # Field default: the field must be given
OMIT = object()  # Field default: an absent field stays absent from the echo


@dataclass(frozen=True)
class Field:
    """One config field: its JSON constraint (or a Component) and default.

    `default` is REQUIRED, OMIT, a value (a partial document for component
    fields, materialized like a given one), or a function of the echo
    being built.  A `seeded` field takes the `--seed` override.
    """

    schema: dict | Component
    default: Any = REQUIRED
    seeded: bool = False


class Kind:
    """The fields of one kind and the constructor taking them as keywords.

    `build` is None for sections the CLI reads as plain values.
    """

    def __init__(self, build: Callable | None = None, **fields: Field):
        self.build = build
        self.fields = fields


class Component:
    """A config component: kinds selected by the `key` field, or one Kind."""

    def __init__(self, name: str, kinds: dict[str, Kind] | Kind, key: str = "kind"):
        self.name = name
        self.key = None if isinstance(kinds, Kind) else key
        self.kinds = {None: kinds} if isinstance(kinds, Kind) else kinds
        self.names = {field for kind in self.kinds.values() for field in kind.fields}
        if self.key:
            self.names.add(self.key)
        self.schema = self._schema()

    def _schema(self) -> dict:
        def closed(fields: dict[str, Field], **extra: dict) -> dict:
            return {
                "type": "object",
                "properties": {**extra, **{n: _json(f.schema) for n, f in fields.items()}},
                "required": [*extra, *(n for n, f in fields.items() if f.default is REQUIRED)],
                "additionalProperties": False,
            }

        if self.key is None:
            return closed(self.kinds[None].fields)
        key = self.key
        return {
            "type": "object",
            "properties": {key: {"enum": list(self.kinds)}},
            "required": [key],
            "allOf": [
                {
                    "if": {"properties": {key: {"const": name}}, "required": [key]},
                    "then": closed(kind.fields, **{key: {"const": name}}),
                }
                for name, kind in self.kinds.items()
            ],
        }

    def _kind(self, doc: dict) -> Kind:
        return self.kinds[doc[self.key] if self.key else None]

    def materialize(self, doc: dict, seed: int | None = None, root: dict | None = None) -> dict:
        """A fresh copy of a validated `doc` with every default filled in."""
        out = {self.key: doc[self.key]} if self.key else {}
        root = out if root is None else root
        for name, f in self._kind(doc).fields.items():
            if name in doc:
                value = doc[name]
            elif f.default is OMIT:
                continue
            else:
                value = f.default(root) if callable(f.default) else f.default
            if f.seeded and seed is not None:
                value = seed
            out[name] = _normalize(value, f.schema, seed, root)
        return out

    def build(self, doc: dict, **extra: Any) -> Any:
        """The library object of a materialized `doc`; keys of other sections are ignored."""
        kind = self._kind(doc)
        args = {n: _build(doc[n], f.schema) for n, f in kind.fields.items() if n in doc}
        try:
            return kind.build(**args, **extra)
        except ValueError as exc:
            raise ConfigError(f"{self.name}: {exc}") from exc


def _json(schema: Any) -> Any:
    """`schema` with every Component replaced by its JSON schema."""
    if isinstance(schema, Component):
        return schema.schema
    if isinstance(schema, dict):
        return {k: _json(v) for k, v in schema.items()}
    if isinstance(schema, list):
        return [_json(v) for v in schema]
    return schema


_CASTS = (("integer", int), ("number", float), ("boolean", bool))


def _normalize(value: Any, schema: Any, seed: int | None, root: dict) -> Any:
    """The echo of a validated value: fresh containers, numbers cast by type."""
    if isinstance(schema, Component):
        return schema.materialize(value, seed, root)
    if value is None:
        return None
    types = schema.get("type", ())
    types = (types,) if isinstance(types, str) else types
    if "array" in types:
        if "prefixItems" in schema:
            return [_normalize(v, s, seed, root) for v, s in zip(value, schema["prefixItems"])]
        return [_normalize(v, schema["items"], seed, root) for v in value]
    if "object" in types:
        item = schema["additionalProperties"]
        return {str(k): _normalize(v, item, seed, root) for k, v in value.items()}
    for name, cast in _CASTS:
        if name in types:
            return cast(value)
    return value


def _build(value: Any, schema: Any) -> Any:
    if isinstance(schema, Component):
        return schema.build(value)
    if isinstance(schema, dict) and isinstance(schema.get("items"), Component):
        return [schema["items"].build(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# JSON constraints
# ---------------------------------------------------------------------------

NUM = {"type": "number"}
POS = {"type": "number", "exclusiveMinimum": 0}
UNIT = {"type": "number", "minimum": 0, "maximum": 1}
ALPHA = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
INT = {"type": "integer"}
NAT = {"type": "integer", "minimum": 0}
POS_INT = {"type": "integer", "minimum": 1}
NUMS = {"type": "array", "items": NUM, "minItems": 1}
PAIR = {"type": "array", "items": NUM, "minItems": 2, "maxItems": 2}
COLUMN_COEFF = {"type": "array", "prefixItems": [INT, NUM], "minItems": 2, "maxItems": 2}


def _array(items: dict | Component, **constraints: Any) -> dict:
    return {"type": "array", "items": items, **constraints}


# ---------------------------------------------------------------------------
# component tables
# ---------------------------------------------------------------------------

FUNCTION = Component("function", {
    "power": Kind(Power, p=Field(NUM, 2.0)),
    "scaled_power": Kind(ScaledPower, p=Field(NUM, 2.0), c=Field(NUM, 1.0)),
    "power_over_p": Kind(PowerOverP, p=Field(NUM, 2.0)),
    "exp_minus_one": Kind(ExpMinusOne),
    "linear": Kind(LinearSlope, c=Field(NUM, 1.0)),
    "table": Kind(lambda knots: Table(tuple(map(tuple, knots))), knots=Field(_array(PAIR))),
})

FAMILY = Component("family", {
    "constant": Kind(ConstantFamily, function=Field(FUNCTION, {"kind": "power"})),
    "index_scaled": Kind(IndexScaledFamily),
    "index_power": Kind(
        lambda exponents: IndexPowerFamily(tuple(exponents)), exponents=Field(NUMS)
    ),
    "spike": Kind(
        lambda slopes, default_slope: SpikeFamily(
            tuple(sorted((int(k), v) for k, v in slopes.items())), default_slope
        ),
        slopes=Field({"type": "object", "additionalProperties": NUM}, {}),
        default_slope=Field(NUM, 1.0),
    ),
    "custom": Kind(
        lambda functions: CustomFamily(tuple(functions)),
        functions=Field(_array(FUNCTION, minItems=1)),
    ),
})

# a schedule builds its rule; `build_lacunary` turns the rule into cut points
SCHEDULE = Component("schedule", {
    "geometric": Kind(
        Geometric, base=Field(NUM, 1.0), ratio=Field(NUM, 2.0), count=Field(POS_INT, 10)
    ),
    "explicit": Kind(
        lambda cut_points: Explicit(tuple(cut_points)),
        cut_points=Field(_array(INT, minItems=2)),
    ),
})

MATRIX = Component("matrix", {
    "identity": Kind(Identity),
    "cesaro_c1": Kind(CesaroC1),
    "shift": Kind(lambda offset: Shift(offset), offset=Field(INT, 1)),
    "row_table": Kind(
        lambda rows: RowTable(tuple(tuple(map(tuple, row)) for row in rows)),
        rows=Field(_array(_array(COLUMN_COEFF))),
    ),
    "geometric_tail": Kind(geometric_tail, decay=Field(NUM, 0.5), x_bound=Field(NUM, 1.0)),
})


def _scalars(name: str, cls: type[RhoSequence] | type[ExponentSequence]) -> Component:
    return Component(name, {
        "constant": Kind(lambda value: cls(constant=value), value=Field(NUM, 1.0)),
        "per_index": Kind(
            lambda values: cls(constant=None, per_index=tuple(values)), values=Field(NUMS)
        ),
    })


RHO = _scalars("rho", RhoSequence)
EXPONENTS = _scalars("exponents", ExponentSequence)


def _alternating01(horizon: int) -> Sequence:
    values = np.zeros(horizon)
    values[1::2] = 1.0
    return Sequence(values)


def _random_bounded(horizon, center, radius, exception_density, exception_scale, seed) -> Sequence:
    rng = np.random.default_rng(seed)
    return random_bounded_sequence(rng, horizon, center, radius, exception_density, exception_scale)


SEQUENCE = Component("sequence", {
    "explicit": Kind(lambda values: Sequence(np.asarray(values)), values=Field(NUMS)),
    "constant": Kind(
        lambda value, horizon: Sequence(np.full(horizon, value)),
        value=Field(NUM, 0.0),
        horizon=Field(POS_INT),
    ),
    "alternating01": Kind(_alternating01, horizon=Field(POS_INT)),
    "random_bounded": Kind(
        _random_bounded,
        horizon=Field(POS_INT),
        center=Field(NUM, 0.0),
        radius=Field(NUM, 1.0),
        exception_density=Field(UNIT, 0.0),
        exception_scale=Field(NUM, 3.0),
        seed=Field(NAT, DEFAULT_SEED, seeded=True),
    ),
})


def _space(alpha: float) -> Component:
    """The space section; commands differ only in the default of alpha.

    `build` takes the family, schedule and matrix as extra keywords.
    """
    return Component("space", Kind(
        SpaceParams,
        alpha=Field(ALPHA, alpha),
        epsilon=Field(POS, 1e-3),
        L=Field(NUM, 0.0),
        m_max=Field(NAT, 32),
        rho=Field(RHO, {"kind": "constant"}),
        exponents=Field(EXPONENTS, {"kind": "constant"}),
        matrix_tol=Field(POS, 1e-12),
    ))


SPACE = _space(alpha=1.0)

VERDICT = Component("verdict", Kind(
    tol=Field(POS, 1e-3),
    tail_window=Field({"type": ["integer", "null"], "minimum": 1}, None),
    slope_slack=Field({"type": ["number", "null"]}, None),
))


def _construction(theorem: str, r_max: int, **fields: Field) -> Kind:
    """A construction kind; m_max null leaves it to the builder (echoed resolved)."""

    def build(schedule=None, **spec_fields):
        return CounterexampleSpec(theorem, schedule_rule=schedule, **spec_fields)

    return Kind(
        build,
        nu=Field({"type": "number", "minimum": 0}, 1.0),
        rho=Field(POS, 1.0),
        r_max=Field(POS_INT, r_max),
        alpha=Field(ALPHA, 1.0),
        m_max=Field({"type": ["integer", "null"], "minimum": 0}, None),
        family=Field(FAMILY, OMIT),
        **fields,
    )


CONSTRUCTION = Component("construction", {
    "thm37": _construction("thm37", 14),
    "thm38": _construction("thm38", 10, nu_values=Field(NUMS, OMIT), schedule=Field(SCHEDULE, OMIT)),
}, key="theorem")

# ---------------------------------------------------------------------------
# command tables
# ---------------------------------------------------------------------------

NORMS = Component("norms", Kind(
    command=Field({"const": "norms"}),
    sequence=Field(SEQUENCE),
    family=Field(FAMILY),
    rho=Field(RHO, {"kind": "constant"}),
    luxemburg_tol=Field(POS, 1e-10),
    orlicz_tol=Field(POS, 1e-9),
    complementary=Field(Component("complementary", Kind(
        indices=Field(_array(POS_INT, minItems=1), [1]),
        v_values=Field(NUMS, [0.0, 1.0, 2.0]),
        u_max=Field(POS, 1e3),
    )), OMIT),
    delta2=Field(Component("delta2", Kind(a=Field(POS, 1.0), k_max=Field(POS_INT, 32))), OMIT),
))

_CLASSIFY_COMMON = {
    "command": Field({"const": "classify"}),
    "flag_mode": Field({"enum": [MODULAR_FLAGS, RAW_FLAGS]}, MODULAR_FLAGS),
    "verdict": Field(VERDICT, {}),
}

CLASSIFY = Component("classify", Kind(
    **_CLASSIFY_COMMON,
    sequence=Field(SEQUENCE),
    family=Field(FAMILY),
    schedule=Field(SCHEDULE),
    matrix=Field(MATRIX, {"kind": "identity"}),
    space=Field(SPACE, {}),
))

# a construction fixes the sequence, family, schedule, matrix and space
CLASSIFY_CONSTRUCTION = Component("classify", Kind(
    **_CLASSIFY_COMMON, construction=Field(CONSTRUCTION)
))

CHECKS = {
    "thm37": Component("checks", Kind(
        shat_tail_target=Field(NUM, 0.5),
        shat_tail_tol=Field(POS, 0.05),
        strong_bound_coeff=Field(POS, 2.0),
        strong_bound_min_r=Field(POS_INT, 4),
    )),
    "thm38": Component("checks", Kind(
        shat_exact_tol=Field(POS, 1e-12),
        shat_density_max=Field(POS, 0.01),
        shat_density_min_r=Field(POS_INT, 7),
        strong_min=Field(NUM, 1.0 - 1e-9),
    )),
}

# the construction's fields sit at the top level, next to verdict and checks
COUNTEREXAMPLE = Component("counterexample", {
    theorem: Kind(
        command=Field({"const": "counterexample"}),
        **kind.fields,
        verdict=Field(VERDICT, {}),
        checks=Field(CHECKS[theorem], {}),
    )
    for theorem, kind in CONSTRUCTION.kinds.items()
}, key="theorem")

INCLUSION = Component("inclusion", Kind(
    command=Field({"const": "inclusion"}),
    theorems=Field(_array({"enum": list(THEOREMS)}, uniqueItems=True), list(THEOREMS)),
    beta=Field(ALPHA, 1.0),
    family=Field(FAMILY, {"kind": "constant"}),
    schedule=Field(SCHEDULE, {"kind": "geometric", "count": 8}),
    matrix=Field(MATRIX, {"kind": "identity"}),
    space=Field(_space(alpha=0.5), {}),
    verdict=Field(VERDICT, {}),
    corpus=Field(Component("corpus", Kind(
        size=Field(NAT, 20),
        seed=Field(NAT, DEFAULT_SEED, seeded=True),
        center=Field(NUM, lambda echo: echo["space"]["L"]),
        radius=Field(POS, 1.0),
        exception_density=Field(UNIT, 0.0),
        exception_scale=Field(NUM, 3.0),
        include_thm37=Field({"type": "boolean"}, False),
        include_thm38=Field({"type": "boolean"}, False),
        construction_r_max=Field(POS_INT, 14),
    )), {}),
))

COMMANDS = {
    "norms": NORMS,
    "classify": CLASSIFY,
    "counterexample": COUNTEREXAMPLE,
    "inclusion": INCLUSION,
}


def _command_component(doc: dict, command: str) -> Component:
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if command == "classify" and "construction" in doc:
        return CLASSIFY_CONSTRUCTION
    return COMMANDS[command]


@functools.cache
def _validator(component: Component) -> jsonschema.protocols.Validator:
    cls = jsonschema.validators.validator_for(component.schema)
    cls.check_schema(component.schema)
    return cls(component.schema)


def validate_config(doc: Any, command: str) -> None:
    """Schema-validate a config document; raises ConfigError with the path."""
    validator = _validator(_command_component(doc, command))
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        raise ConfigError(f"config field {error.json_path}: {error.message}")


def materialize(doc: dict, command: str, seed: int | None = None) -> dict:
    """The echo of a validated config: every default filled in, `seed` applied."""
    return _command_component(doc, command).materialize(doc, seed)


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc
