"""The public API of the `lacunary` package and what importing it loads."""

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
