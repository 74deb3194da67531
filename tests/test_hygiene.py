"""Source hygiene: every name a library module imports is used in it, and
importing the CLI loads neither the check battery nor the optimizer."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sliceregular"


def _unused_imports(tree):
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = (a.asname or a.name).split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # names in string annotations such as -> "QPoly"
            used.update(node.value.split("."))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, name)
                  for line, name in _unused_imports(tree)]
    assert not found, "unused imports: " + ", ".join(found)


def test_cli_import_leaves_battery_and_optimizer_unloaded():
    # the benchmark's set-up time includes `import sliceregular.cli`;
    # scipy.optimize alone takes about 0.2 s to load
    code = ("import sys, sliceregular.cli; print([m for m in "
            "('sliceregular.checks', 'scipy.optimize') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
