"""Config tables: every kind materializes and builds; defaults land in the echo;
the compiled validation walk agrees with jsonschema on the rendered schema."""

import copy
import gc
import inspect
import math
import re

import jsonschema
import numpy as np
import pytest
import reference
from hypothesis import given, settings, strategies as st

from lacunary import config
from lacunary.config import (
    CLASSIFY,
    CLASSIFY_CONSTRUCTION,
    COMMANDS,
    CONSTRUCTION,
    EXPONENTS,
    FAMILY,
    FUNCTION,
    MATRIX,
    REQUIRED,
    RHO,
    SCHEDULE,
    SEQUENCE,
    Component,
    NumberArray,
    Numbers,
    _command_component,
    _compile,
    materialize,
    validate_config,
)
from lacunary.errors import ConfigError

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


def _tables():
    """Every component the command tables reach, each once."""
    found, todo = {}, [*COMMANDS.values(), CLASSIFY_CONSTRUCTION]
    while todo:
        component = todo.pop()
        if id(component) in found:
            continue
        found[id(component)] = component
        for kind in component.kinds.values():
            for f in kind.fields.values():
                schema = f.schema.get("items") if isinstance(f.schema, dict) else f.schema
                if isinstance(schema, Component):
                    todo.append(schema)
    return list(found.values())


def test_table_defaults_agree_with_their_constructors():
    """Where a kind's field and the same keyword of its constructor both declare a plain
    default, the two agree: the library called without a field builds what the config
    builds.  The inclusion space's alpha of 0.5 is the one deliberate exception."""
    plain = (int, float, type(None))  # not REQUIRED, OMIT, a partial document or a factory
    compared, disagree = set(), []
    for component in _tables():
        for name, kind in component.kinds.items():
            if kind.build is None:
                continue
            keywords = inspect.signature(kind.build).parameters
            for field_name, f in kind.fields.items():
                keyword = keywords.get(field_name)
                if keyword is None or not isinstance(f.default, plain) \
                        or not isinstance(keyword.default, plain):
                    continue
                compared.add((component.name, name, field_name))
                if f.default != keyword.default or type(f.default) is not type(keyword.default):
                    disagree.append((component.name, name, field_name, f.default, keyword.default))
    assert disagree == [("space", None, "alpha", 0.5, 1.0)]
    assert {("construction", "thm38", "r_max"), ("construction", "thm37", "m_max"),
            ("schedule", "geometric", "count"), ("space", None, "m_max")} <= compared


# ---------------------------------------------------------------------------
# the validation walk against jsonschema on Component.schema
# ---------------------------------------------------------------------------

COMMAND_COMPONENTS = [*COMMANDS.values(), CLASSIFY_CONSTRUCTION]
# optional fields that are absent unless given, so that mutations can reach inside them
SAMPLE_VALUES = {"slopes": {"3": 2.0, "10": 0.5}, "nu_values": [1.0, 2.0]}


def _given_fields(draw, component):
    """A valid document of `component` with random kinds: required fields and some sections."""
    name = draw(st.sampled_from(list(component.kinds)))
    doc = {component.key: name} if component.key else {}
    for field_name, f in component.kinds[name].fields.items():
        if isinstance(f.schema, Component):
            if f.default is REQUIRED or draw(st.booleans()):
                doc[field_name] = _given_fields(draw, f.schema)
        elif f.default is REQUIRED:
            doc[field_name] = f.schema.get("const", REQUIRED_VALUES.get(field_name))
        elif field_name in SAMPLE_VALUES and draw(st.booleans()):
            doc[field_name] = copy.deepcopy(SAMPLE_VALUES[field_name])
    return doc


@st.composite
def documents(draw, component):
    """A valid command document with every default filled in, as plain JSON values."""
    return reference.materialize(component, _given_fields(draw, component))


def plain(value):
    """`value` with every echoed array of numbers (`Numbers`) as the nested lists it stands for."""
    if isinstance(value, Numbers):
        return value.tolist()
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [plain(v) for v in value]
    return value


def _slots(value):
    """(container, key) of every value below `value`, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, v in items:
        yield value, key
        if isinstance(v, (dict, list)):
            yield from _slots(v)


REPLACEMENTS = ["x", True, False, None, 2.0, 2.5, 0, -1, 1.5, -0.5, 1e9, [], {}, [1.0], {"kind": "nope"}]
MUTATIONS = ["replace", "delete", "add", "kind", "duplicate"]


def _mutate(doc, slot, mutation, replacement):
    container, key = slot
    if mutation == "replace":
        container[key] = copy.deepcopy(replacement)
    elif mutation == "delete" and isinstance(container, dict):
        del container[key]
    elif mutation == "add":  # keys that a json_path writes in brackets
        target = container if isinstance(container, dict) else doc
        target["it's" if isinstance(replacement, str) else "3"] = copy.deepcopy(replacement)
    elif mutation == "kind":
        target = container[key] if isinstance(container[key], dict) else container
        if isinstance(target, dict):
            target["theorem" if "theorem" in target else "kind"] = "nope"
    elif mutation == "duplicate":
        target = container[key] if isinstance(container[key], list) else container
        if isinstance(target, list) and target:
            target.append(copy.deepcopy(target[0]))


@st.composite
def mutated_documents(draw):
    component = draw(st.sampled_from(COMMAND_COMPONENTS))
    doc = draw(documents(component))
    for _ in range(draw(st.integers(1, 3))):  # several errors exercise the choice among them
        slots = list(_slots(doc))
        if slots:
            slot = draw(st.sampled_from(slots))
            _mutate(doc, slot, draw(st.sampled_from(MUTATIONS)), draw(st.sampled_from(REPLACEMENTS)))
    return component.name, doc


def _components(component, seen=None):
    """`component` and every component its fields reach, once each."""
    seen = {} if seen is None else seen
    if id(component) not in seen:
        seen[id(component)] = component
        for kind in component.kinds.values():
            for f in kind.fields.values():
                for inner in (f.schema, *(f.schema.values() if isinstance(f.schema, dict) else ())):
                    if isinstance(inner, Component):
                        _components(inner, seen)
    return seen.values()


# every JSON constraint of the tables that holds no component, once each
CONSTRAINTS = list({
    repr(f.schema): f.schema
    for command in COMMAND_COMPONENTS
    for component in _components(command)
    for kind in component.kinds.values()
    for f in kind.fields.values()
    if isinstance(f.schema, dict) and not any(isinstance(v, Component) for v in f.schema.values())
}.values())
VALUES = [0, 1, 2, -1, 0.5, 1.0, 2.0, 2.5, -0.5, 1e9, True, False, None, "x", "raw", "T31",
          [], [1.0], [1.0, 2.0], [1, 2.5], [0.5, 1.0, 2.0], ["T31", "T31"], ["T31", "T33"], [True, 1],
          {}, {"3": 1.0}, {"3": "x"}]


class TestValidationWalk:
    @pytest.mark.parametrize(
        "schema", CONSTRAINTS, ids=[f"{s.get('type', next(iter(s)))}-{i}" for i, s in enumerate(CONSTRAINTS)]
    )
    def test_every_constraint_against_jsonschema(self, schema):
        check = _compile(schema)
        validator = jsonschema.Draft202012Validator(schema)
        for value in VALUES:
            best = jsonschema.exceptions.best_match(validator.iter_errors(value))
            expected = None if best is None else (tuple(best.path), best.message)
            assert check(value) == expected, value

    @pytest.mark.parametrize(
        "path,section",
        [
            ("$.family.slopes['3']", {"family": {"kind": "spike", "slopes": {"3": "x"}}}),
            ("$.family.slopes['it\\'s']", {"family": {"kind": "spike", "slopes": {"it's": None}}}),
            ("$.matrix.rows[1][0][0]", {"matrix": {"kind": "row_table", "rows": [[[1, 1.0]], [[2.5, 1.0]]]}}),
            ("$.space.rho.values", {"space": {"rho": {"kind": "per_index", "values": []}}}),
        ],
        ids=["digit-key", "quoted-key", "row-table-entry", "empty-values"],
    )
    def test_error_paths_in_jsonpath_form(self, path, section):
        doc = {"command": "classify", "sequence": {"kind": "explicit", "values": [1.0]},
               "family": {"kind": "index_scaled"}, "schedule": {"kind": "geometric"}, **section}
        with pytest.raises(ConfigError, match=re.escape(f"config field {path}: ")):
            validate_config(doc, "classify")

    @settings(max_examples=400, deadline=None)
    @given(mutated_documents())
    def test_walk_agrees_with_jsonschema(self, case):
        command, doc = case
        component = _command_component(doc, command)
        validator = jsonschema.Draft202012Validator(component.schema)
        errors = list(validator.iter_errors(doc))
        try:
            validate_config(doc, command)
        except ConfigError as exc:
            reported = str(exc)
        else:
            reported = None
        assert (reported is None) == (not errors)
        if errors:
            depth = min(len(e.path) for e in errors)
            shallowest = {e.json_path for e in errors if len(e.path) == depth}
            assert reported.split(": ", 1)[0].removeprefix("config field ") in shallowest
            best = jsonschema.exceptions.best_match(errors)
            assert reported == f"config field {best.json_path}: {best.message}"


# ---------------------------------------------------------------------------
# numeric arrays: one NumberArray constraint, scanned without a per-element walk
# ---------------------------------------------------------------------------


def _numeric_leaves(schema):
    """Whether a JSON constraint is, or holds below its arrays, a number or integer leaf."""
    if not isinstance(schema, dict):
        return False
    types = schema.get("type", ())
    if {"number", "integer"} & set([types] if isinstance(types, str) else types):
        return True
    return any(map(_numeric_leaves, [schema.get("items"), *schema.get("prefixItems", ())]))


def test_every_numeric_array_is_a_number_array():
    """An array field with number or integer leaves must be declared as a NumberArray, so that
    it is scanned, not walked element by element."""
    loose = [
        f"{component.name}.{name}"
        for command in COMMAND_COMPONENTS
        for component in _components(command)
        for kind in component.kinds.values()
        for name, f in kind.fields.items()
        if isinstance(f.schema, dict) and f.schema.get("type") == "array"
        and _numeric_leaves(f.schema["items"]) and not isinstance(f.schema, NumberArray)
    ]
    assert loose == []


LONG = 4000
BASE = {"command": "classify", "sequence": {"kind": "explicit", "values": [1.0]},
        "family": {"kind": "index_scaled"}, "schedule": {"kind": "geometric"}}


def long_table(rows=LONG):
    return {"kind": "row_table", "rows": [[[n, 0.5], [n + 1, 0.5]] for n in range(1, rows + 1)]}


DEEP_MUTATIONS = {  # (section, index path into its long array, value): a change near the end
    "row-bool": ("matrix", (LONG - 1, 1, 0), True),
    "row-2.5-as-integer": ("matrix", (LONG - 1, 1, 0), 2.5),
    "row-2.0-as-integer": ("matrix", (LONG - 1, 1, 0), 2.0),
    "row-string": ("matrix", (LONG - 1, 1, 1), "x"),
    "row-3-item-pair": ("matrix", (LONG - 1, 1), [LONG, 0.5, 7]),
    "row-empty": ("matrix", (LONG - 1,), []),
    "value-bool": ("sequence", (LONG - 1,), False),
    "value-string": ("sequence", (LONG - 1,), "x"),
    "value-null": ("sequence", (LONG - 2,), None),
    "value-numpy": ("sequence", (LONG - 1,), np.float64(2.5)),
    "value-nan": ("sequence", (LONG - 1,), math.nan),
}


@pytest.mark.parametrize("name", DEEP_MUTATIONS)
def test_deep_mutation_in_a_long_array_as_best_match(name):
    section, where, value = DEEP_MUTATIONS[name]
    long = long_table() if section == "matrix" else {"kind": "explicit", "values": [0.5] * LONG}
    container = long["rows" if section == "matrix" else "values"]
    for i in where[:-1]:
        container = container[i]
    container[where[-1]] = value
    doc = {**BASE, section: long}
    validator = jsonschema.Draft202012Validator(CLASSIFY.schema)
    best = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    try:
        validate_config(doc, "classify")
    except ConfigError as exc:
        assert best is not None and str(exc) == f"config field {best.json_path}: {best.message}"
    else:
        assert best is None


def list_tree(value):
    """Every list at or below `value`, a JSON document."""
    if isinstance(value, list):
        yield value
    if isinstance(value, (dict, list)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from list_tree(v)


def reachable_containers(value):
    """The ids of the dicts, lists, tuples and `Numbers` that `value` reaches."""
    seen, stack = set(), [value]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (dict, list, tuple, Numbers)) and id(obj) not in seen:
            seen.add(id(obj))
            stack.extend(gc.get_referents(obj))
    return seen


def test_long_table_takes_no_per_element_walk(monkeypatch):
    """Validating, echoing and building the cli-mix-shaped 4100-row table never walks an array
    element by element; a table the scan cannot pass is walked once."""
    walks = []
    walk = config._walk

    def counting(schema):
        check = walk(schema)
        if not isinstance(schema, NumberArray):
            return check
        return lambda value: walks.append(schema) or check(value)

    monkeypatch.setattr(config, "_walk", counting)
    monkeypatch.setattr(Component, "check", property(Component.check.func))  # compiled afresh
    doc = {**BASE, "matrix": long_table(4100)}
    rows = doc["matrix"]["rows"]
    validate_config(doc, "classify")
    echo = materialize(doc, "classify")
    assert echo["matrix"]["rows"].tolist() == rows
    assert not reachable_containers(echo) & {id(v) for v in list_tree(doc)}  # the echo holds no list of doc
    MATRIX.build(echo["matrix"])
    assert walks == []
    rows[4099][1][1] = True
    with pytest.raises(ConfigError, match=re.escape("$.matrix.rows[4099][1][1]: True is not of type")):
        validate_config(doc, "classify")
    assert len(walks) == 1
