"""The public API of the `lacunary` package and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lacunary


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
