import json

import numpy as np
import pytest

from sliceregular.algebra import QPoly, binom, star_product
from sliceregular.cli import main
from sliceregular.quaternion import QI, QJ, Quaternion


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_verb_matches_library(capsys):
    spec = {"function": {"poly": [[1, 0, 0, 0], [0, 0, 1, 0]]},
            "probes": [[0.5, 0.5, 0.0, 0.0]]}
    code, out = run(capsys, "eval", "--input", json.dumps(spec))
    assert code == 0
    rep = json.loads(out)
    p = QPoly([Quaternion(1.0), QJ])
    want = p.eval(Quaternion(0.5, 0.5, 0.0, 0.0))
    assert np.allclose(rep["rows"][0][1], want.components(), atol=1e-12)


def test_star_verb_exact_product(capsys):
    spec = {"f": {"poly": [[0, -1, 0, 0], [1, 0, 0, 0]]},
            "g": {"poly": [[0, 0, -1, 0], [1, 0, 0, 0]]}}
    code, out = run(capsys, "star", "--input", json.dumps(spec))
    assert code == 0
    rep = json.loads(out)
    want = star_product(binom(QI), binom(QJ))
    got = [c for c in rep["product"]["coeffs"]]
    for k, c in enumerate(want.coeffs):
        assert np.allclose(got[k], c.components(), atol=1e-14)


def test_zeros_verb_single_zero(capsys):
    spec = {"function": {"poly": [[0, -1, 0, 0], [1, 0, 0, 0]]}}
    code, out = run(capsys, "zeros", "--input", json.dumps(spec))
    assert code == 0
    rep = json.loads(out)
    assert len(rep["isolated"]) == 1
    assert np.allclose(rep["isolated"][0]["point"], [0, 1, 0, 0], atol=1e-10)
    assert rep["spherical"] == []


def test_douren_caps_table(capsys):
    code, out = run(capsys, "douren", "--caps")
    assert code == 0
    rep = json.loads(out)
    assert "rows" in rep and len(rep["rows"]) == 2
    # every row carries cap label, sphere, value and derivative quadruples
    for row in rep["rows"]:
        assert row[0] in ("C+", "C-")
        assert row[1] == [-1.0, 2.0]
        assert len(row[2]) == 4 and len(row[3]) == 4


def test_douren_reports_ghost_divisor(capsys):
    code, out = run(capsys, "douren")
    assert code == 0
    rep = json.loads(out)["fixtures"]
    assert rep["ghost_divisor_at_far_cap_point"] is True
    assert rep["g_nonzero_there"] is True


def test_output_is_deterministic(capsys):
    spec = {"function": {"douren": "f"},
            "probes": [[-1.0, 0.0, 2.0, 0.0], [0.5, 2.0, 0.0, 0.0]]}
    _, out1 = run(capsys, "eval", "--input", json.dumps(spec))
    _, out2 = run(capsys, "eval", "--input", json.dumps(spec))
    assert out1 == out2


def test_bad_input_exits_2(capsys):
    code = main(["eval", "--input", '{"function": {"poly": "nope"}}'])
    capsys.readouterr()
    assert code == 2


def test_domain_error_exit_code(capsys):
    # a probe on the cut of the branch-log domain is a domain error
    spec = {"function": {"douren": "f"},
            "probes": [[-1.0, 3.0, 0.0, 0.0]]}
    code = main(["eval", "--input", json.dumps(spec)])
    capsys.readouterr()
    assert code != 0


def test_out_file_and_csv(tmp_path, capsys):
    spec = {"function": {"poly": [[0, 0, 0, 0], [1, 0, 0, 0]]},
            "probes": [[1.0, 0.0, 0.0, 0.0]]}
    path = tmp_path / "out.csv"
    code = main(["eval", "--input", json.dumps(spec),
                 "--out", str(path), "--format", "csv"])
    capsys.readouterr()
    assert code == 0
    text = path.read_text()
    assert text.splitlines()[0] == "probe,value"


EVAL_SPEC = json.dumps({"function": {"poly": [[1, 0, 0, 0]]},
                        "probes": [[0, 0, 0, 0]]})


@pytest.mark.parametrize("argv", [
    ["eval", "--seed", "3", "--input", EVAL_SPEC],
    ["eval", "--grid", "3x3", "--input", EVAL_SPEC],
    ["douren", "--input", "{}"],
    ["douren", "--seed", "3"],
    ["selftest", "--input", "{}"],
    ["selftest", "--grid", "3x3"],
])
def test_flag_on_a_verb_that_ignores_it_exits_2(argv, capsys):
    # each flag is registered only on the verbs that read it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    capsys.readouterr()
    assert exc.value.code == 2


def test_selftest_runs_the_whole_battery(tmp_path, capsys):
    from sliceregular.checks import FX, battery
    names = [name for name, _, _ in battery(FX.phi0_pbar)]
    path = tmp_path / "selftest.json"
    code, out = run(capsys, "selftest", "--out", str(path))
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == names
    assert all(line.split()[1] == "pass" for line in lines)
    rep = json.loads(path.read_text())
    assert rep["all_pass"] is True
    assert [row[0] for row in rep["rows"]] == names
    assert all(row[1] == "pass" for row in rep["rows"])


def _raise(rng, scale):
    raise ZeroDivisionError("forced")


@pytest.mark.parametrize("check, note", [
    (lambda rng, scale: (False, "forced"), "forced"),
    (_raise, "ZeroDivisionError: forced"),
], ids=["returns-false", "raises"])
def test_selftest_failing_entry_exits_3(check, note, tmp_path, monkeypatch,
                                        capsys):
    from sliceregular import checks
    monkeypatch.setattr(checks, "battery", lambda phi0: [
        ("fine", 1, lambda rng, scale: (True, "ok")), ("broken", None, check)])
    path = tmp_path / "selftest.json"
    code, out = run(capsys, "selftest", "--out", str(path))
    assert code == 3
    assert out.splitlines()[1].split()[:2] == ["broken", "FAIL"]
    rep = json.loads(path.read_text())
    assert rep["all_pass"] is False
    assert rep["rows"] == [["fine", "pass", "ok"], ["broken", "FAIL", note]]


def test_douren_argument_jump_is_2_pi(capsys):
    code, out = run(capsys, "douren")
    assert code == 0
    jump = json.loads(out)["jump"]
    assert abs(jump["argument_jump"] - 2.0 * np.pi) < 1e-6


# the C- pole of h = (q - pbar)^{-*} * g at -1 - 2j
C_MINUS = [-1.0, 0.0, -2.0, 0.0]


def test_bad_laurent_parameters_exit_2(capsys):
    bad = [{"nodes": 0}, {"window": [4, -8]}, {"nodes": 3.5},
           {"nodes": -5}, {"radius": -0.1}, {"window": [-8]},
           {"window": [-8, 4], "nodes": 12}, {"window": [-8.0, 4]},
           {"window": [False, 4]}, {"nodes": True}, {"radius": "0.1"}]
    for verb in ("singular", "laurent"):
        for extra in bad:
            spec = {"function": {"douren": "h"}, "point": C_MINUS, **extra}
            code = main([verb, "--input", json.dumps(spec)])
            got = capsys.readouterr()
            assert code == 2, (verb, extra)
            assert json.loads(got.err)["error"] == "ParamOutOfRange"
            assert got.out == "" and "NaN" not in got.err


def test_singular_prints_the_probe_margin(capsys):
    spec = {"function": {"douren": "h"}, "point": [-1.0, -2.0, 0.0, 0.0],
            "nodes": 512, "window": [-8, 4]}
    code, out = run(capsys, "singular", "--input", json.dumps(spec))
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "nonremovable"
    probe = rep["probe"]
    assert probe["radii"] == [1e-2, 1e-3, 1e-4]
    assert probe["threshold"] == 30.0
    # at pbar sup |h| grows like 1/r: about 10x per decade
    s = probe["sups"]
    assert 9.0 < s[1] / s[0] < 11.0 and 9.0 < s[2] / s[1] < 11.0
    spec["point"] = C_MINUS
    code, out = run(capsys, "singular", "--input", json.dumps(spec))
    assert code == 0
    assert '"probe": null' in out
    assert json.loads(out)["kind"] == "pole"


RATIONAL = {"rational": {"num": [[0, 1, 0, 0], [1, 0, 0, 0]],
                         "den": [5, 2, 1]}}
OP_PROBES = [[-0.5, 0.0, 1.5, 0.0], [0.3, 0.4, 0.1, 0.9],
             [-1.02, 0.3, 1.7, -0.9], [0.7, 0.0, 0.0, 0.0]]


@pytest.mark.parametrize("spec", [{"douren": "h"}, {"douren": "ell"},
                                  RATIONAL], ids=["h", "ell", "rational"])
@pytest.mark.parametrize("verb", ["star", "conj", "sym", "recip"])
def test_operation_verbs_print_the_library_values(verb, spec, capsys):
    from sliceregular.algebra import (_as_slicefn, conjugate, reciprocal,
                                      symmetrize)
    from sliceregular.cli import parse_function
    g = {"poly": [[0, 0, 1, 0], [1, 0, 0, 0]]}
    payload = {"f": spec, "probes": OP_PROBES}
    if verb == "star":
        payload["g"] = g
    code, out = run(capsys, verb, "--input", json.dumps(payload))
    assert code == 0
    f = parse_function(spec)
    want = _as_slicefn({
        "star": lambda: star_product(f, parse_function(g)),
        "conj": lambda: conjugate(f), "sym": lambda: symmetrize(f),
        "recip": lambda: reciprocal(f)}[verb]())
    rows = json.loads(out)["rows"]
    assert [row[0] for row in rows] == OP_PROBES
    for probe, value in rows:
        ref = np.array(want(Quaternion(*probe)).components())
        assert np.abs(np.array(value) - ref).max() <= 1e-12 * max(
            1.0, np.abs(ref).max())


@pytest.mark.parametrize("verb, key", [("conj", "conjugate"),
                                       ("sym", "symmetrization"),
                                       ("recip", "reciprocal")])
def test_unary_verbs_on_a_polynomial_print_coefficients(verb, key, capsys):
    spec = {"function": {"poly": [[0, -1, 0, 0], [1, 0, 0, 0]]},
            "probes": [[0.5, 0.0, 0.0, 0.0]]}
    code, out = run(capsys, verb, "--input", json.dumps(spec))
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == [key]
    if verb == "recip":
        assert set(rep[key]) == {"num", "den"}
    else:
        assert "coeffs" in rep[key]


@pytest.mark.parametrize("verb", ["star", "conj", "sym", "recip"])
def test_operation_verbs_at_the_pole_sphere_exit_2(verb, capsys):
    payload = {"f": {"douren": "h"}, "g": {"douren": "g"},
               "probes": [[-1.0, -2.0, 0.0, 0.0]]}
    code = main([verb, "--input", json.dumps(payload)])
    got = capsys.readouterr()
    assert code == 2
    assert json.loads(got.err)["error"] == "NotInDomain"
    assert got.out == ""


def test_malformed_payloads_exit_2(capsys):
    poly = {"poly": [[1, 0, 0, 0], [0, 1, 0, 0]]}
    cases = [
        (["eval"], [1, 2], "ParamOutOfRange"),
        (["conj"], [1, 2], "ParamOutOfRange"),
        (["eval"], {"function": poly, "probes": 5}, "ParamOutOfRange"),
        (["conj"], {"f": {"douren": "ell"}, "probes": 5}, "ParamOutOfRange"),
        (["eval"], {"function": {"rational": {"num": [1], "den": []}},
                    "probes": []}, "ZeroPolynomial"),
        (["recip"], {"f": {"rational": {"num": [1], "den": [0]}}},
         "ZeroPolynomial"),
    ]
    for verb, payload, error in cases:
        code = main(verb + ["--input", json.dumps(payload)])
        got = capsys.readouterr()
        assert code == 2, (verb, payload)
        assert json.loads(got.err)["error"] == error, (verb, payload)
        assert got.out == ""


def test_bad_node_counts_exit_2(capsys):
    series_spec = {"function": {"douren": "g"}, "sphere": [-1.0, 2.0]}
    ball = {"function": {"poly": [[1, 0, 0, 0], [0, 1, 0, 0]]},
            "probes": [[0.1, 0.2, 0.0, 0.0]]}
    cases = [("series", series_spec, extra) for extra in (
        {"nodes": 0}, {"nodes": 8}, {"nodes": -3}, {"nodes": 3.5},
        {"nodes": True}, {"depth": -9}, {"window_bottom": 1.5})]
    cases += [("cauchy", dict(ball, region={"ball": [0.0, 1.5]}), extra)
              for extra in ({"nodes": 0}, {"nodes": -3}, {"nodes": 2.5},
                            {"nodes": False})]
    cases += [("volume-cauchy", dict(ball, ball=[0.0, 1.0]), extra)
              for extra in ({"curve_nodes": 0}, {"sphere_nodes": -5},
                            {"sphere_nodes": 0}, {"curve_nodes": 1.5},
                            {"sphere_nodes": True})]
    for verb, spec, extra in cases:
        code = main([verb, "--input", json.dumps({**spec, **extra})])
        got = capsys.readouterr()
        assert code == 2, (verb, extra)
        assert json.loads(got.err)["error"] == "ParamOutOfRange"
        assert got.out == "" and "NaN" not in got.err


def _no_caps(*args, **kwargs):
    raise AssertionError("a cap was resolved")


def test_douren_eval_resolves_no_cap(monkeypatch, capsys):
    # fixture members are built on first access: evaluating h at a C+ point
    # builds h and its domain, and no cap
    from sliceregular import douren
    from sliceregular.quaternion import rotate_unit
    monkeypatch.setattr(douren, "cap_component", _no_caps)
    q = Quaternion(-0.9) + rotate_unit(QI, QJ, 0.2) * 2.05
    spec = {"function": {"douren": "h"}, "probes": [q.to_json()]}
    code, out = run(capsys, "eval", "--input", json.dumps(spec))
    assert code == 0
    want = douren.fixtures().h(q)
    assert np.allclose(json.loads(out)["rows"][0][1], want.components(),
                       rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name", ["p", "cap_plus", "cap_minus", "cfg",
                                  "shifted_g", "zz"])
def test_douren_spec_names_only_its_functions(name, monkeypatch, capsys):
    from sliceregular import douren
    monkeypatch.setattr(douren, "cap_component", _no_caps)
    spec = {"function": {"douren": name}, "probes": [[0.5, 0.0, 0.0, 0.0]]}
    code = main(["eval", "--input", json.dumps(spec)])
    got = capsys.readouterr()
    assert code == 2
    assert json.loads(got.err)["error"] == "ParamOutOfRange"
    assert got.out == ""


def test_cauchy_prints_null_residual_off_the_domain(capsys):
    # 1/(1 + q^2) has its poles on the unit sphere: the probe j is off the
    # domain, so its residual is null, while 0.3 + 0.1i has one
    spec = {"function": {"rational": {"num": [1], "den": [1, 0, 1]}},
            "region": {"ball": [0, 2]},
            "probes": [[0, 0, 1, 0], [0.3, 0.1, 0, 0]], "nodes": 256}
    code, out = run(capsys, "cauchy", "--input", json.dumps(spec))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0][2] is None
    assert isinstance(rows[1][2], float)


@pytest.mark.parametrize("grid", ["7x5", "7x80"])
def test_douren_grid_matches_per_point_reference(grid, capsys):
    # the row y = 2 of the 7x80 grid runs along the half-line cut, where
    # the points with x <= -2 are off the domain
    from sliceregular import douren
    code, out = run(capsys, "douren", "--grid", grid)
    assert code == 0
    rep = json.loads(out)
    fx = douren.fixtures()
    I = fx.cfg.base_unit
    nx, ny = [int(v) for v in grid.split("x")]
    assert rep["x"] == np.linspace(-4.0, 2.0, nx).tolist()
    assert rep["y"] == np.linspace(0.05, 4.0, ny).tolist()
    want = []
    for y in rep["y"]:
        line = []
        for x in rep["x"]:
            q = Quaternion(x) + I * y
            line.append(fx.f(q).components() if fx.domain.contains(q)
                        else None)
        want.append(line)
    got = rep["values"]
    assert [[v is None for v in line] for line in got] == \
        [[v is None for v in line] for line in want]
    assert any(v is None for line in want for v in line) == (grid == "7x80")
    for gl, wl in zip(got, want):
        for g, w in zip(gl, wl):
            if w is not None:
                assert np.allclose(g, w, rtol=1e-14, atol=1e-14)
