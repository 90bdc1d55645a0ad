"""JSON run-configuration: one table per component kind.

Each config component (function, family, schedule, matrix, scalars,
sequence, space, verdict, construction) and each command-level section
(norms, classify, counterexample with its checks, inclusion with its
corpus) is a `Component`: a table that lists, once per kind, every field
with its JSON constraint and its default, plus the constructor of the
library object.  Three things are generated from these tables and nowhere
else:

  * the validation of each command's config: `Component.check` is a walk
    compiled from the tables on first use.  Kinds are closed: a field that
    belongs to another `kind` is rejected like any unknown key, and a
    missing required field fails at its `$.path`.  The walk gives each
    keyword its JSON Schema (Draft 2020-12) meaning and error wording, and
    of all the errors reports the shallowest, then the one with the
    greatest path (keys compared as strings, indices as numbers).
    Every array of numbers is a `NumberArray`, whose check is a scan at
    C speed over the whole array; the walk runs over it only to word an
    error the scan cannot rule out, so the messages are the walk's.
    `Component.schema` renders the same tables as a JSON Schema; it is
    kept as the reference the tests check the walk against, and nothing
    at run time reads it;
  * the echoed config: `materialize` fills every default into a fresh
    document, so re-running the echo reproduces the run byte for byte
    (timestamp aside).  Numbers are echoed as floats, integers as ints,
    by a normalizer compiled once per field from the tables; an integer
    past float64 in a number field is a ConfigError.  A number array is
    echoed as one read-only `Numbers` value: a flat numpy column per leaf
    slot and the lengths of its lists, so the echo holds no list of the
    parsed document and none per element;
  * the library objects: `Component.build` turns an echoed section into
    its object and reports a rejected value as a ConfigError.  A number
    array reaches its constructor as its columns: a row table's
    `(lengths, ks, coefs)`, a sequence's values as one float64 array.

Tables are read top to bottom: `FUNCTION` first, the commands last.
"""

from __future__ import annotations

import functools
import json
import numbers
import re
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable

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

    @functools.cached_property
    def schema(self) -> dict:
        """The JSON Schema rendering of the table (the reference for `check`)."""
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

    @functools.cached_property
    def check(self) -> Check:
        """The validation walk of this table, compiled on first use."""
        kinds = {
            name: _closed(kind, {self.key: {"const": name}} if self.key else {})
            for name, kind in self.kinds.items()
        }
        return _keyed(self.key, kinds) if self.key else kinds[None]

    @functools.cached_property
    def _echo(self) -> dict[str | None, list[tuple[str, Field, Normalizer]]]:
        """Per kind, each field with the normalizer of its echo, compiled on first use."""
        return {
            name: [(n, f, _normalizer(f.schema)) for n, f in kind.fields.items()]
            for name, kind in self.kinds.items()
        }

    def _kind(self, doc: dict) -> Kind:
        return self.kinds[doc[self.key] if self.key else None]

    def materialize(self, doc: dict, seed: int | None = None, root: dict | None = None) -> dict:
        """A fresh copy of a validated `doc` with every default filled in."""
        tag = doc[self.key] if self.key else None
        out = {self.key: tag} if self.key else {}
        root = out if root is None else root
        for name, f, normalize in self._echo[tag]:
            if name in doc:
                value = doc[name]
            elif f.default is OMIT:
                continue
            else:
                value = f.default(root) if callable(f.default) else f.default
            if f.seeded and seed is not None:
                if seed < f.schema["minimum"]:
                    raise ConfigError(f"--seed must be >= {f.schema['minimum']}, got {seed}")
                value = seed
            try:
                out[name] = normalize(value, seed, root)
            except OverflowError as exc:  # an integer past float64 in a number field
                raise ConfigError(f"{self.name}.{name}: {exc}") from exc
        return out

    def build(self, doc: dict, *, label: str | None = None, **extra: Any) -> Any:
        """The library object of a materialized `doc`; keys of other sections are ignored.

        A ValueError of the constructor becomes a ConfigError whose message
        starts with `label`, the component's name unless given.
        """
        kind = self._kind(doc)
        args = {n: _build(n, doc[n], f.schema) for n, f in kind.fields.items() if n in doc}
        try:
            return kind.build(**args, **extra)
        except ValueError as exc:
            raise ConfigError(f"{label or self.name}: {exc}") from exc


def _json(schema: Any) -> Any:
    """`schema` with every Component replaced by its JSON schema."""
    if isinstance(schema, Component):
        return schema.schema
    if isinstance(schema, dict):
        return {k: _json(v) for k, v in schema.items()}
    if isinstance(schema, list):
        return [_json(v) for v in schema]
    return schema


# the echo of a validated value: (value, seed, root) -> fresh containers, numbers cast by type
Normalizer = Callable[[Any, int | None, dict], Any]
_CASTS = (("integer", int), ("number", float), ("boolean", bool))


def _normalizer(schema: dict | Component) -> Normalizer:
    """The normalizer of a field's JSON constraint (or of its Component), compiled."""
    if isinstance(schema, Component):
        return schema.materialize
    items = schema.get("items")
    if isinstance(items, Component):  # the tables hold components only as fields or items
        return lambda value, seed, root: [items.materialize(v, seed, root) for v in value]
    cast = _cast(schema)
    return lambda value, seed, root: cast(value)


def _cast(schema: dict) -> Callable[[Any], Any]:
    """The echo of a value of a constraint that holds no component; null stays null."""
    if isinstance(schema, NumberArray):
        return schema.cast()
    types = schema.get("type", ())
    types = (types,) if isinstance(types, str) else types
    if "array" in types:
        item = _cast(schema["items"])
        return lambda value: list(map(item, value))
    if "object" in types:
        item = _cast(schema["additionalProperties"])
        return lambda value: {str(k): item(v) for k, v in value.items()}
    cast = next((c for name, c in _CASTS if name in types), None)
    if cast is None:  # const, enum: echoed as given
        return lambda value: value
    if "null" in types:
        return lambda value: None if value is None else cast(value)
    return cast


def _build(name: str, value: Any, schema: Any) -> Any:
    """The library value of field `name`; an item of a list of components is labelled `name[i]`.

    An array of numbers is handed over as its echo's one column, or as its list lengths then
    its columns: `(lengths, ks, coefs)` for a row table.
    """
    if isinstance(schema, NumberArray):
        value = schema.cast()(value)
        arrays = (*value.lengths, *value.columns)
        return arrays[0] if len(arrays) == 1 else arrays
    if isinstance(schema, Component):
        return schema.build(value)
    if isinstance(schema, dict) and isinstance(schema.get("items"), Component):
        return [schema["items"].build(v, label=f"{name}[{i}]") for i, v in enumerate(value)]
    return value


# ---------------------------------------------------------------------------
# validation: a walk compiled from the tables
# ---------------------------------------------------------------------------

# A check takes a value and returns None, or the error to report about it:
# (path below the value, message).  Of several errors it returns the
# shallowest, then the one with the greatest path.
Error = tuple[tuple, str]
Check = Callable[[Any], "Error | None"]


def _is_number(v: Any) -> bool:
    return type(v) in (float, int) or (not isinstance(v, bool) and isinstance(v, numbers.Number))


def _is_integer(v: Any) -> bool:
    if type(v) is int:
        return True
    if isinstance(v, float):
        return v.is_integer()
    return isinstance(v, int) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": _is_number,
    "integer": _is_integer,
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _equal(a: Any, b: Any) -> bool:
    """JSON equality: `true` is not 1, while 1 and 1.0 are equal."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _unique(items: list) -> bool:
    try:
        return len({(isinstance(v, bool), v) for v in items}) == len(items)
    except TypeError:  # an unhashable item: compare pairwise
        return not any(_equal(a, b) for i, a in enumerate(items) for b in items[:i])


def _type(types: str | list[str]) -> Callable[[Any], str | None]:
    types = [types] if isinstance(types, str) else types
    tests = [_TYPES[t] for t in types]
    names = ", ".join(map(repr, types))
    if len(tests) == 1:  # one type: no generator per value (about 0.5 µs each)
        (test,) = tests
        return lambda v: None if test(v) else f"{v!r} is not of type {names}"
    return lambda v: None if any(t(v) for t in tests) else f"{v!r} is not of type {names}"


def _bound(fails: Callable[[Any, Any], bool], wording: str) -> Callable:
    return lambda limit: lambda v: (
        f"{v!r} {wording} {limit!r}" if _is_number(v) and fails(v, limit) else None
    )


def _length(fails: Callable[[int, int], bool], edge: int, at_edge: str, wording: str) -> Callable:
    return lambda n: lambda v: (
        f"{v!r} {at_edge if n == edge else wording}"
        if isinstance(v, list) and fails(len(v), n) else None
    )


# keyword -> (argument -> test); a test returns None or the message about the value
_TESTS = {
    "type": _type,
    "const": lambda c: lambda v: None if _equal(v, c) else f"{c!r} was expected",
    "enum": lambda e: lambda v: None if any(_equal(v, x) for x in e) else f"{v!r} is not one of {e!r}",
    "minimum": _bound(lambda v, m: v < m, "is less than the minimum of"),
    "maximum": _bound(lambda v, m: v > m, "is greater than the maximum of"),
    "exclusiveMinimum": _bound(lambda v, m: v <= m, "is less than or equal to the minimum of"),
    "minItems": _length(lambda n, m: n < m, 1, "should be non-empty", "is too short"),
    "maxItems": _length(lambda n, m: n > m, 0, "is expected to be empty", "is too long"),
    "uniqueItems": lambda u: lambda v: (
        f"{v!r} has non-unique elements" if u and isinstance(v, list) and not _unique(v) else None
    ),
}


def _better(best: Error | None, key: str | int, error: Error) -> Error:
    """The error to keep of `best` and a child's `error` found under `key`."""
    path = (key, *error[0])
    if best is None or len(path) < len(best[0]) or (len(path) == len(best[0]) and path > best[0]):
        return path, error[1]
    return best


def _compile(schema: dict | Component) -> Check:
    """The check of a field's JSON constraint (or of its Component)."""
    if isinstance(schema, Component):
        return schema.check
    walk = _walk(schema)
    if isinstance(schema, NumberArray):  # the walk only words the error of an array the scan cannot pass
        scan = schema.scan()
        return lambda value: None if scan(value) else walk(value)
    return walk


def _walk(schema: dict) -> Check:
    """The per-element check of a JSON constraint: its tests, then its items or values."""
    tests, prefix, items, values = [], [], None, None
    for keyword, arg in schema.items():
        if keyword in _TESTS:
            tests.append(_TESTS[keyword](arg))
        elif keyword == "prefixItems":
            prefix = [_compile(s) for s in arg]
        elif keyword == "items":
            items = _compile(arg)
        elif keyword == "additionalProperties" and not isinstance(arg, bool):
            values = _compile(arg)
        else:
            raise ValueError(f"no check for the JSON schema keyword {keyword!r}")
    if not prefix and items is None and values is None:
        return _leaf(tests)

    def check(value: Any) -> Error | None:
        for test in tests:
            if (message := test(value)) is not None:
                return (), message
        best = None
        if isinstance(value, list):
            for i, (item_check, v) in enumerate(zip(prefix, value)):
                if (error := item_check(v)) is not None:
                    best = _better(best, i, error)
            if items is not None:
                for i in range(len(prefix), len(value)):
                    if (error := items(value[i])) is not None:
                        best = _better(best, i, error)
        elif isinstance(value, dict) and values is not None:
            for k, v in value.items():
                if (error := values(v)) is not None:
                    best = _better(best, k, error)
        return best

    return check


def _leaf(tests: list[Callable[[Any], str | None]]) -> Check:
    """The check of a constraint with nothing below it: its tests alone, in order."""
    if len(tests) == 1:
        (test,) = tests
        return lambda value: None if (message := test(value)) is None else ((), message)

    def check(value: Any) -> Error | None:
        for test in tests:
            if (message := test(value)) is not None:
                return (), message
        return None

    return check


def _not_object(value: Any) -> Error | None:
    return None if isinstance(value, dict) else ((), f"{value!r} is not of type 'object'")


def _closed(kind: Kind, extra: dict[str, dict]) -> Check:
    """The check of one kind: an object with exactly the kind's fields (plus `extra`)."""
    fields = {**{n: _compile(s) for n, s in extra.items()},
              **{n: _compile(f.schema) for n, f in kind.fields.items()}}
    required = [n for n, f in kind.fields.items() if f.default is REQUIRED]

    def check(value: Any) -> Error | None:
        if (error := _not_object(value)) is not None:
            return error
        for name in required:
            if name not in value:
                return (), f"{name!r} is a required property"
        extras = sorted((k for k in value if k not in fields), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            return (), f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"
        best = None
        for name, v in value.items():
            if (error := fields[name](v)) is not None:
                best = _better(best, name, error)
        return best

    return check


def _keyed(key: str, kinds: dict[str, Check]) -> Check:
    """The check of a component whose `key` field selects one of `kinds`."""
    names = list(kinds)

    def check(value: Any) -> Error | None:
        if (error := _not_object(value)) is not None:
            return error
        if key not in value:
            return (), f"{key!r} is a required property"
        tag = value[key]
        kind = kinds.get(tag) if isinstance(tag, str) else None
        if kind is None:
            return (key,), f"{tag!r} is not one of {names!r}"
        return kind(value)

    return check


_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _json_path(path: tuple) -> str:
    """`path` in JSONPath form: `$.matrix.rows[3][0]`, `$.family.slopes['3']`."""
    out = "$"
    for key in path:
        if isinstance(key, int):
            out += f"[{key}]"
        elif _NAME.match(key):
            out += "." + key
        else:
            out += "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return out


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


def _array(items: dict | Component, **constraints: Any) -> dict:
    return {"type": "array", "items": items, **constraints}


_EXACT_TYPES = {"integer": {int}, "number": {int, float}}
_EXTREMES = {"minimum": min, "exclusiveMinimum": min, "maximum": max}  # the extreme a bound tests


class NumberArray(dict):
    """The JSON constraint of an array (`depth` 1) or an array of arrays (`depth` 2) of
    numbers: of leaves (`leaf` an integer or number constraint) or of [first, second]
    pairs (`leaf` a tuple of two).

    `scan()` tells whether an array is surely valid without a Python step per element:
    container types, pair lengths and leaf types by `set(map(...))`, bounds by `min`/`max`
    (so only integer leaves take bounds: a NaN would hide from `min`).  Only an exact `int`
    passes an integer slot and an exact `int`/`float` a number slot; anything else (`2.0`
    as an integer, a bool, a numpy scalar) is left to the walk, which gives the verdict
    and words the error.  `cast()` echoes a valid array as one `Numbers` value.
    """

    def __init__(self, leaf: dict | tuple[dict, dict], depth: int = 1, **constraints: Any):
        self.leaves, self.depth, item = (leaf,), depth, leaf
        if isinstance(leaf, tuple):
            self.leaves, item = leaf, {"type": "array", "prefixItems": list(leaf), "minItems": 2, "maxItems": 2}
        if any(c["type"] != "integer" and len(c) > 1 for c in self.leaves) or depth not in (1, 2):
            raise ValueError(f"a NumberArray is 1 or 2 deep and only its integer leaves take bounds, "
                             f"not {depth} and {self.leaves}")
        if depth == 2:
            item = _array(item)
        super().__init__(_array(item, **constraints))

    def _split(self, value: Any) -> tuple[list[list[int]], list[list]] | None:
        """The lengths of the lists below the top and the leaves of each slot, or None when
        `value` is not lists of the array's shape."""
        width, lengths, items = len(self.leaves), [], value
        if type(value) is not list:
            return None
        for level in range(self.depth if width == 2 else self.depth - 1):  # down to the leaves
            if not set(map(type, items)) <= {list}:
                return None
            if level < self.depth - 1:
                lengths.append(list(map(len, items)))
            elif not set(map(len, items)) <= {2}:  # the pairs
                return None
            items = list(chain.from_iterable(items))
        return lengths, [items[j::width] for j in range(width)]

    def scan(self) -> Callable[[Any], bool]:
        min_items = self.get("minItems", 0)
        checks = [
            (_EXACT_TYPES[c["type"]], [(_EXTREMES[k], _TESTS[k](b)) for k, b in c.items() if k != "type"])
            for c in self.leaves
        ]

        def scan(value: Any) -> bool:
            split = self._split(value)
            if split is None or len(value) < min_items:
                return False
            for column, (types, bounds) in zip(split[1], checks):
                if not set(map(type, column)) <= types:
                    return False
                if column and any(test(extreme(column)) for extreme, test in bounds):
                    return False
            return True

        return scan

    def cast(self) -> Callable[[Any], Numbers]:
        def cast(value: Any) -> Numbers:
            if isinstance(value, Numbers):  # the echo of an echo is itself
                return value
            lengths, columns = self._split(value)
            lengths = [np.array(n, dtype=np.int64) for n in lengths]
            columns = [_column(column, c["type"]) for column, c in zip(columns, self.leaves)]
            for array in lengths + columns:
                array.flags.writeable = False
            return Numbers(tuple(lengths), tuple(columns))

        return cast


@dataclass(frozen=True, eq=False, slots=True)
class Numbers:
    """The echo of a valid `NumberArray`: one flat read-only column per leaf slot, row-major
    (int64 for an integer slot, float64 for a number slot), and, for an array of arrays,
    the lengths of its lists.  An integer column holding a value past int64 holds Python
    ints (dtype object), so that the builder that reads it words the error.
    """

    lengths: tuple[np.ndarray, ...]
    columns: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.lengths[0]) if self.lengths else len(self.columns[0])

    def tolist(self) -> list:
        """The array as nested lists of Python numbers, as the report writes it."""
        lists = [column.tolist() for column in self.columns]
        items = lists[0] if len(lists) == 1 else list(map(list, zip(*lists)))
        for lengths in self.lengths:
            rest = iter(items)
            items = [list(islice(rest, n)) for n in lengths.tolist()]
        return items


def _column(leaves: list, kind: str) -> np.ndarray:
    """The leaves of one slot of a valid array as a column: float64 for numbers (past float64,
    float()'s OverflowError), int64 for integers, or Python ints when one is past int64."""
    if kind == "number":
        exact = set(map(type, leaves)) <= {int, float}
        return np.array(leaves if exact else list(map(float, leaves)), dtype=np.float64)
    if not set(map(type, leaves)) <= {int}:
        leaves = list(map(int, leaves))  # 2.0 is an integer too
    try:
        return np.array(leaves, dtype=np.int64)
    except OverflowError:
        return np.array(leaves, dtype=object)


NUMS = NumberArray(NUM, minItems=1)


# ---------------------------------------------------------------------------
# component tables
# ---------------------------------------------------------------------------

FUNCTION = Component("function", {
    "power": Kind(Power, p=Field(NUM, 2.0)),
    "scaled_power": Kind(ScaledPower, p=Field(NUM, 2.0), c=Field(NUM, 1.0)),
    "power_over_p": Kind(PowerOverP, p=Field(NUM, 2.0)),
    "exp_minus_one": Kind(ExpMinusOne),
    "linear": Kind(LinearSlope, c=Field(NUM, 1.0)),
    "table": Kind(lambda knots: Table(tuple(zip(*knots))), knots=Field(NumberArray((NUM, NUM)))),
})

FAMILY = Component("family", {
    "constant": Kind(ConstantFamily, function=Field(FUNCTION, {"kind": "power"})),
    "index_scaled": Kind(IndexScaledFamily),
    "index_power": Kind(
        lambda exponents: IndexPowerFamily(tuple(exponents.tolist())), exponents=Field(NUMS)
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
        lambda cut_points: Explicit(tuple(cut_points.tolist())),
        cut_points=Field(NumberArray(INT, minItems=2)),
    ),
})

MATRIX = Component("matrix", {
    "identity": Kind(Identity),
    "cesaro_c1": Kind(CesaroC1),
    "shift": Kind(lambda offset: Shift(offset), offset=Field(INT, 1)),
    "row_table": Kind(lambda rows: RowTable(*rows), rows=Field(NumberArray((INT, NUM), depth=2))),
    "geometric_tail": Kind(geometric_tail, decay=Field(NUM, 0.5), x_bound=Field(NUM, 1.0)),
})


def _scalars(name: str, cls: type[RhoSequence] | type[ExponentSequence]) -> Component:
    return Component(name, {
        "constant": Kind(lambda value: cls(constant=value), value=Field(NUM, 1.0)),
        "per_index": Kind(
            lambda values: cls(constant=None, per_index=tuple(values.tolist())), values=Field(NUMS)
        ),
    })


RHO = _scalars("rho", RhoSequence)
EXPONENTS = _scalars("exponents", ExponentSequence)


def _alternating01(horizon: int) -> Sequence:
    values = np.zeros(horizon)
    values[1::2] = 1.0
    return Sequence._adopt(values)


def _random_bounded(horizon, center, radius, exception_density, exception_scale, seed) -> Sequence:
    rng = np.random.default_rng(seed)
    return random_bounded_sequence(rng, horizon, center, radius, exception_density, exception_scale)


SEQUENCE = Component("sequence", {
    "explicit": Kind(Sequence, values=Field(NUMS)),
    "constant": Kind(
        lambda value, horizon: Sequence._adopt(np.full(horizon, value)),
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
        indices=Field(NumberArray({**POS_INT, "maximum": int(np.iinfo(np.int64).max)}, minItems=1), [1]),
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


def validate_config(doc: Any, command: str) -> None:
    """Validate a config document against its command's table; raises ConfigError with the path."""
    error = _command_component(doc, command).check(doc)
    if error is not None:
        raise ConfigError(f"config field {_json_path(error[0])}: {error[1]}")


def materialize(doc: dict, command: str, seed: int | None = None) -> dict:
    """The echo of a validated config: every default filled in, `seed` applied."""
    return _command_component(doc, command).materialize(doc, seed)


def parse_json(text: str, source: str | Path) -> Any:
    """The JSON document in `text`; a syntax error or NaN/Infinity/-Infinity is a ConfigError.

    Python's json accepts the three constants, and NaN passes every bound
    of the validation walk because it fails every comparison.
    """

    def reject(name: str) -> Any:
        raise ConfigError(f"{source}: {name} is not a JSON number; use a finite number")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    doc = parse_json(text, path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc
