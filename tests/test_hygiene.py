"""Source hygiene: every name a library module imports is used in it,
importing the CLI loads neither the check battery nor the optimizer, and
every slice function the library builds has a stem hook."""

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


def test_every_slice_function_built_in_src_has_a_stem_hook():
    from sliceregular import douren
    from sliceregular.algebra import (QPoly, QRational, conjugate, reciprocal,
                                      real_quadratic, star_product,
                                      symmetrize)
    from sliceregular.domains import ball
    from sliceregular.quaternion import QI, QJ, Quaternion, embed_complex
    from sliceregular.slicefn import SliceFunction, extend_from_slices
    from sliceregular.zeros import factor_out_point, factor_out_sphere

    FX = douren.fixtures()
    S = SliceFunction.from_exact(real_quadratic(-1.0, 2.0))
    built = {
        "from_exact(QPoly)": S,
        "from_exact(QRational)": SliceFunction.from_exact(
            QRational(QPoly([1.0]), real_quadratic(0.0, 1.0))),
        "star_product": star_product(FX.g, FX.g),
        "conjugate": conjugate(FX.g),
        "symmetrize": symmetrize(FX.g),
        "reciprocal": reciprocal(FX.g),
        "factor_out_point": factor_out_point(
            FX.shifted_g(FX.p0), FX.p0, cap=FX.cap_plus),
        "factor_out_sphere": factor_out_sphere(star_product(S, FX.g),
                                               -1.0, 2.0, FX.cap_plus),
        "extend_from_slices": extend_from_slices(
            lambda z: embed_complex(z, QI), lambda z: embed_complex(z, QJ),
            QI, QJ, ball(0.0, 1.0)),
        "shifted_g": FX.shifted_g(Quaternion(-1.0) + FX.I0 * 2.0),
    }
    built.update((name, getattr(FX, name))
                 for name in ("f", "D", "g", "ell", "m", "h"))
    bare = sorted(name for name, fn in built.items()
                  if fn._slice_many is None)
    assert not bare, "built without a stem hook: " + ", ".join(bare)


def test_every_domain_built_in_src_answers_unit_rows_at_once():
    # one clearance call on (N, 3) unit rows gives one value per row: at
    # one sphere's x and y, at a real x, and at arrays of x and y
    import numpy as np

    from sliceregular import douren
    from sliceregular.algebra import QPoly, QRational, real_quadratic
    from sliceregular.domains import ball, preset, whole_space
    from sliceregular.slicefn import SliceFunction, intersect_domains
    from sliceregular.zeros import factor_out_point

    FX = douren.fixtures()
    built = {
        "ball": preset("ball"),
        "cassini": preset("cassini"),
        "cassini with a hole": preset("cassini", r1=0.3, r2=1.2),
        "tube": preset("tube", samples=[[0.0, 0.0, 0.0, 0.0],
                                        [0.5, 0.5, 0.0, 0.0]], eps=0.4),
        "douren": preset("douren"),
        "whole_space": whole_space(),
        "grid-cap omega": douren.omega_domain(FX.cfg,
                                              closed_form_caps=False),
        "torus": FX.D.domain,
        "h": FX.h.domain,
        "rational": SliceFunction.from_exact(
            QRational(QPoly([1.0]), real_quadratic(0.0, 1.0))).domain,
        "intersection": intersect_domains(ball(0.0, 3.0), FX.domain),
        "factor_out_point": factor_out_point(
            FX.shifted_g(FX.p0), FX.p0, cap=FX.cap_plus).domain,
    }
    rng = np.random.default_rng(1)
    units = rng.standard_normal((7, 3))
    units /= np.linalg.norm(units, axis=1)[:, None]
    wrong = []
    for name, dom in built.items():
        for x, y in ((-1.0, 2.0), (0.3, 0.0),
                     (np.linspace(-1.5, 0.5, 7), np.linspace(0.0, 3.0, 7))):
            got = dom.clearance(x, y, units)
            if not (isinstance(got, np.ndarray) and got.shape == (7,)
                    and got.dtype == float):
                wrong.append(name)
    assert not wrong, "no (N,) float array from: " + ", ".join(wrong)


def test_package_import_loads_no_scipy():
    # scipy is imported only inside zeros.zero_scan and the minimum-modulus
    # check; the package import pays nothing for it
    code = ("import sys, sliceregular, sliceregular.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
