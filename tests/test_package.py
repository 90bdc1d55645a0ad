"""The public API of the `lacunary` package and what importing it loads."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import lacunary


def _names(node):
    """Every name `node` reads, takes as an attribute or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_public_name_resolves_once():
    names = lacunary.__all__
    assert sorted(set(names)) == sorted(names), "a name is listed twice in __all__"
    missing = [name for name in names if not hasattr(lacunary, name)]
    assert missing == []


def test_cli_import_leaves_jsonschema_out():
    """jsonschema is a test oracle only; importing the CLI must not load it."""
    src = str(Path(lacunary.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, lacunary.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_error_class_has_a_raiser():
    """Each LacunaryError subclass in errors.py is constructed somewhere else in the package.

    Exceptions are made only to be raised, so a construction is a raiser
    (a helper may build the exception that its caller raises).  An error
    class with none is dead API.
    """
    package = Path(lacunary.__file__).resolve().parent
    errors = ast.parse((package / "errors.py").read_text())
    subclasses = {"LacunaryError"}
    for node in errors.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in subclasses for base in node.bases
        ):
            subclasses.add(node.name)
    subclasses.discard("LacunaryError")
    constructed = set()
    for path in package.glob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    constructed.add(node.func.id)
    assert subclasses, "errors.py defines no LacunaryError subclass"
    assert sorted(subclasses - constructed) == []


def test_every_private_helper_has_a_caller():
    """Each module-level private function or class of the package is named by package code
    other than its own definition.

    A name counts where it is read (`_helper(...)`), taken as an attribute
    (`module._helper`) or imported.  A helper that no other code names is
    left over from a deletion.
    """
    package = Path(lacunary.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]

    statements = [stmt for tree in trees for stmt in tree.body]
    helpers = [stmt for stmt in statements
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and stmt.name.startswith("_") and not stmt.name.startswith("__")]
    named = [(stmt, set(_names(stmt))) for stmt in statements]
    unused = [helper.name for helper in helpers
              if not any(helper.name in found for stmt, found in named if stmt is not helper)]
    assert helpers, "the package defines no private helper"
    assert unused == []


def _is_dataclass(cls):
    """Whether the class node is decorated `@dataclass` or `@dataclass(...)`."""
    return any("dataclass" in set(_names(d)) for d in cls.decorator_list)


def test_every_class_attribute_is_read():
    """Each non-dunder name assigned in a class body of the package, a class constant or a
    dataclass field's default, and each dataclass field declared without a default (an
    `InitVar` aside), is read as an attribute (`obj.name`) by package code.

    A class attribute or a field that nothing reads is left over from a deletion.
    """
    package = Path(lacunary.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    assigned = set()
    for cls in nodes:
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign):
                    assigned.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    field = _is_dataclass(cls) and "InitVar" not in set(_names(stmt.annotation))
                    if stmt.value is not None or field:
                        assigned.add(stmt.target.id)
    read = {node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert assigned, "the package assigns no class attribute"
    assert sorted(name for name in assigned - read if not name.startswith("__")) == []


def test_every_public_name_is_used_by_the_package_or_a_release_criterion():
    """Each name in `__all__` is named by package code other than `__init__.py` and its own
    definition, or by the release criteria in tests/test_acceptance.py.

    The public library is what the package itself runs: a function that no
    command reaches and no release criterion checks belongs with the tests
    (tests/reference.py), not in `__all__`.
    """
    package = Path(lacunary.__file__).resolve().parent
    acceptance = Path(__file__).resolve().parent / "test_acceptance.py"

    def defines(stmt, name):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            return stmt.name == name
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        return any(isinstance(t, ast.Name) and t.id == name for t in targets)

    named = [(stmt, set(_names(stmt))) for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py" for stmt in ast.parse(path.read_text()).body]
    used = set(_names(ast.parse(acceptance.read_text())))
    unused = [name for name in lacunary.__all__ if name not in used
              and not any(name in found for stmt, found in named if not defines(stmt, name))]
    assert unused == []


def test_no_package_module_names_lapack():
    """Verdict slopes are a closed form: no package code names `np.polyfit` or `np.linalg`."""
    package = Path(lacunary.__file__).resolve().parent
    named = {name for path in package.glob("*.py") for name in _names(ast.parse(path.read_text()))}
    assert sorted(named & {"polyfit", "linalg", "lstsq"}) == []


def test_no_package_module_calls_bind():
    """The package's own member evaluations pass arguments >= 0 by construction and run the
    `_bind` formulas unchecked; `bind`, the checked kernel, is for library callers."""
    package = Path(lacunary.__file__).resolve().parent
    calls = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "bind"]
    assert calls == []


def test_norms_and_inclusion_leave_numpy_ma_out(tmp_path):
    """`np.unique` makes numpy import numpy.ma; the doubling check's grid is built without it."""
    src = str(Path(lacunary.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    (tmp_path / "norms.json").write_text(
        '{"command": "norms", "sequence": {"kind": "explicit", "values": [0.5, -2.0, 1.0]}, '
        '"family": {"kind": "index_scaled"}, "delta2": {"a": 1.0, "k_max": 4}}'
    )
    code = (
        "import sys; from lacunary.cli import main; "
        f"assert main(['norms', '--config', {str(tmp_path / 'norms.json')!r}, '--out', {str(tmp_path / 'n')!r}]) == 0; "
        f"assert main(['inclusion', '--out', {str(tmp_path / 'i')!r}]) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_readme_example_prints_what_its_comments_say():
    """README's library example runs, and each line it prints opens the comment of its print."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    src = str(Path(lacunary.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(comments) == 5
    for out, comment in zip(printed, comments):
        assert re.match(re.escape(out) + r"(:| |$)", comment), (out, comment)
