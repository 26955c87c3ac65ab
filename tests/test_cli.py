import json
import math

import numpy as np
import pytest

import oracles
from sobtrace import PiecewisePolynomial, SampledFunction, cli, extension, functionals, sharp, splines
from sobtrace.cli import main


def write_json_input(path, points, values):
    path.write_text(json.dumps({"points": points, "values": values}))
    return str(path)


def test_check_hand_instance(tmp_path):
    inp = write_json_input(tmp_path / "in.json", [0, 0.5, 3], [0, 1, 1])
    out = tmp_path / "report.json"
    assert main(["--command", "check", "--input", inp, "--m", "1", "--p", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["functionals"]["sequence"]["value"] == pytest.approx(2.0, rel=1e-12)
    assert report["effective_order"] == 1
    assert report["small_set_route"] is False


def test_check_zero_input(tmp_path):
    inp = write_json_input(tmp_path / "z.json", [0, 1, 2], [0, 0, 0])
    out = tmp_path / "report.json"
    assert main(["--command", "check", "--input", inp, "--m", "2", "--p", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for entry in report["functionals"].values():
        assert entry["value"] == 0.0


def test_check_small_set_route(tmp_path):
    inp = write_json_input(tmp_path / "s.json", [0, 1], [1, 2])
    out = tmp_path / "report.json"
    assert main(["--command", "check", "--input", inp, "--m", "2", "--p", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["small_set_route"] is True
    assert "small_set" in report["functionals"]
    assert report["functionals"]["small_set"]["kind"] == "small_set_max"


def test_check_csv_input(tmp_path):
    csv_in = tmp_path / "in.csv"
    csv_in.write_text("x,f\n0,0\n0.5,1\n3,1\n")
    out = tmp_path / "report.json"
    assert main(["--command", "check", "--input", str(csv_in), "--m", "1", "--p", "2", "--out", str(out)]) == 0
    # comment and blank lines are skipped
    noted, noted_out = tmp_path / "noted.csv", tmp_path / "noted.json"
    noted.write_text("x,f\n# a comment\n\n0,0\n  \n0.5,1\n3,1\n")
    assert main(["--command", "check", "--input", str(noted), "--m", "1", "--p", "2", "--out", str(noted_out)]) == 0
    assert json.loads(noted_out.read_text())["functionals"] == json.loads(out.read_text())["functionals"]


def test_unsorted_input_rejected(tmp_path):
    inp = write_json_input(tmp_path / "bad.json", [1, 0], [0, 0])
    out = tmp_path / "r.json"
    assert main(["--command", "check", "--input", inp, "--m", "1", "--p", "2", "--out", str(out)]) == 2


def test_malformed_input_rejected(tmp_path, capsys):
    out = tmp_path / "r.json"

    def rejected(*args):  # exit code 2 with one typed line on stderr, no traceback
        assert main([*args, "--m", "1", "--p", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    for name, text in (
        ("bad.json", "{not json"),
        ("bad.json", '{"points": [0, "a"], "values": [1, 2]}'),
        ("bad.json", '{"points": [0, 1], "values": [1, null]}'),
        ("bad.json", '{"points": [0, [0, 1]], "values": [1, 2]}'),
        ("bad.json", '{"points": 5, "values": [1]}'),
        ("bad.json", '{"points": "01", "values": "12"}'),
        ("bad.json", '{"points": [0, 1]}'),
        ("bad.json", "[[0, 1], [1, 2]]"),
        ("bad.csv", "0,1,2\n1,2,3\n"),  # three columns
        ("bad.csv", "x,f\n0,1\n1,two\n"),  # a number that does not parse after the header
        ("bad.csv", "x,f\n"),  # a header and no data
        ("bad.csv", b"x,f\n0,1\n1,\xff\n"),  # not UTF-8
    ):
        bad = tmp_path / name
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        rejected("--command", "check", "--input", str(bad), "--out", str(out))
    for where in ("missing.json", "."):  # no such file, a directory
        rejected("--command", "check", "--input", str(tmp_path / where), "--out", str(out))
    rejected("--command", "check", "--out", str(out))  # no --input
    # an output path in a directory that does not exist, for every command
    inp = write_json_input(tmp_path / "in.json", [0, 1, 2.5], [1.0, -0.5, 2.0])
    for command in ("check", "extend", "maximal", "compare"):
        rejected("--command", command, "--input", inp, "--grid-h", "0.25", "--out", str(tmp_path / "no" / "r.json"))


def test_p_inf_literal(tmp_path):
    inp = write_json_input(tmp_path / "in.json", [0, 1, 3], [1, -1, 2])
    out = tmp_path / "r.json"
    assert main(["--command", "check", "--input", inp, "--m", "1", "--p", "inf", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["p"] == "inf"
    assert "sharp_maximal" not in report["functionals"]


def test_extend_outputs(tmp_path):
    inp = write_json_input(tmp_path / "in.json", [0, 1, 2.5, 10], [1, 0.5, -1, 2])
    out = tmp_path / "ext.json"
    code = main(
        ["--command", "extend", "--input", inp, "--m", "2", "--p", "2",
         "--backend", "natural2", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    F = PiecewisePolynomial.from_dict(payload)
    assert F(10.0) == pytest.approx(2.0, abs=1e-8)
    assert payload["norms"]["w_norm"] > 0
    csv_path = tmp_path / "ext.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,F,d1F,d2F"
    assert len(lines) > 100


def test_extend_zero_data_writes_zero_spline(tmp_path):
    inp = write_json_input(tmp_path / "z.json", [0, 1, 5], [0, 0, 0])
    out = tmp_path / "ext.json"
    assert main(["--command", "extend", "--input", inp, "--m", "2", "--p", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["norms"]["w_norm"] == 0.0
    F = PiecewisePolynomial.from_dict(payload)
    assert all(abs(F(x)) <= 1e-12 for x in (-10.0, 0.5, 3.0, 14.9))


def test_extend_reproduces_line(tmp_path):
    # degree < m data with narrow gaps: the extension equals the line between
    # the extreme samples
    pts = [0.0, 1.0, 2.0, 3.5]
    vals = [2.0 * x - 1.0 for x in pts]
    inp = write_json_input(tmp_path / "line.json", pts, vals)
    out = tmp_path / "ext.json"
    assert main(["--command", "extend", "--input", inp, "--m", "2", "--p", "2", "--out", str(out)]) == 0
    F = PiecewisePolynomial.from_dict(json.loads(out.read_text()))
    for x in (0.25, 1.7, 3.2):
        assert F(x) == pytest.approx(2.0 * x - 1.0, rel=1e-9)


def test_maximal_profiles(tmp_path, capsys):
    inp = write_json_input(tmp_path / "in.json", [0], [2])
    out = tmp_path / "prof.csv"
    code = main(
        ["--command", "maximal", "--input", inp, "--m", "1", "--p", "2",
         "--grid-h", "0.25", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.startswith("wmf,")
    lines = out.read_text().splitlines()
    assert lines[0] == "x,sharp0,sharp1"
    # box shape for a singleton: the order-0 column is |c| on [-1, 1]
    for line in lines[1:]:
        x, s0, s1 = (float(c) for c in line.split(","))
        assert s0 == (2.0 if -1.0 <= x <= 1.0 else 0.0)
        assert s1 == 0.0


def test_maximal_rejects_p_inf(tmp_path):
    inp = write_json_input(tmp_path / "in.json", [0], [2])
    out = tmp_path / "prof.csv"
    code = main(["--command", "maximal", "--input", inp, "--m", "1", "--p", "inf", "--out", str(out)])
    assert code == 4


def test_zero_maximal_profile(tmp_path, capsys):
    inp = write_json_input(tmp_path / "z.json", [0, 1], [0, 0])
    out = tmp_path / "prof.csv"
    assert main(["--command", "maximal", "--input", inp, "--m", "1", "--p", "2", "--grid-h", "0.5", "--out", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        cells = [float(c) for c in line.split(",")]
        assert cells[1] == 0.0 and cells[2] == 0.0


def test_compare_determinism_and_bounds(tmp_path, monkeypatch):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["--command", "compare", "--m", "1", "--p", "2", "--seed", "11"]
    calls = []  # the extensions of each norm call, single calls included
    for module in (splines, extension):
        norms = module.sobolev_norms
        monkeypatch.setattr(module, "sobolev_norms", lambda Fs, *a, norms=norms: calls.append(len(Fs)) or norms(Fs, *a))
    assert main(args + ["--out", str(out1)]) == 0
    monkeypatch.undo()
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    header = lines[0].split(",")
    i_ratio = header.index("tilde_over_var")
    i_nh = header.index("necessity_hermite")
    i_nn = header.index("necessity_natural2")
    data_rows = [l.split(",") for l in lines[1:] if not l.startswith(("min", "max"))]
    assert data_rows
    assert calls == [2 * len(data_rows)]  # one norm per backend and instance, all in one call
    for row in data_rows:
        assert float(row[i_ratio]) <= 1.0 + 1e-12
        assert row[i_nh] == "pass" and row[i_nn] == "pass"


def test_check_determinism(tmp_path):
    inp = write_json_input(tmp_path / "in.json", [0, 0.7, 2.1, 6.0], [0.3, -1.2, 0.8, 2.0])
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["--command", "check", "--input", inp, "--m", "2", "--p", "1.5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("p", ["1.5", "2", "3"])
def test_finite_p_check_builds_one_subset_table(tmp_path, p):
    points, values = [0, 0.7, 2.1, 3.3, 6.0], [0.3, -1.2, 0.8, 0.1, 2.0]
    inp, out = write_json_input(tmp_path / "in.json", points, values), tmp_path / "shared.json"
    functionals.subset_differences.cache_clear()
    assert main(["--command", "check", "--input", inp, "--m", "2", "--p", p, "--grid-h", "0.25", "--out", str(out)]) == 0
    assert functionals.subset_differences.cache_info().misses == 1  # the sharp profiles read the variational form's table
    reported = json.loads(out.read_text())["functionals"]
    s = SampledFunction(points, values)
    own = {"variational": lambda: functionals.variational_functional(s, 2, float(p)),
           "sharp_maximal": lambda: sharp.wmf_functional(s, 2, float(p), sharp.GridSpec(0.25))}
    for name, functional in own.items():  # each on a table of its own
        functionals.subset_differences.cache_clear()
        assert reported[name]["value"] == functional().value


@pytest.mark.parametrize("m", [1, 2, 3])
def test_maximal_builds_one_subset_table(tmp_path, capsys, m):
    # every order's profile and the sharp-maximal functional read one order-m table
    points, values = [0, 0.7, 2.1, 3.3, 6.0], [0.3, -1.2, 0.8, 0.1, 2.0]
    inp = write_json_input(tmp_path / "in.json", points, values)
    functionals.subset_differences.cache_clear()
    args = ["--command", "maximal", "--input", inp, "--m", str(m), "--p", "1.5", "--grid-h", "0.25"]
    assert main([*args, "--out", str(tmp_path / "prof.csv")]) == 0
    assert functionals.subset_differences.cache_info().misses == 1
    s = SampledFunction(points, values)
    functionals.subset_differences.cache_clear()  # the functional on a table of its own
    assert capsys.readouterr().out == f"wmf,{sharp.wmf_functional(s, m, 1.5, sharp.GridSpec(0.25)).value:.17g}\n"


def test_bad_p_rejected(tmp_path):
    inp = write_json_input(tmp_path / "in.json", [0, 1], [0, 1])
    assert main(["--command", "check", "--input", inp, "--m", "1", "--p", "1", "--out", str(tmp_path / "r.json")]) == 2
    assert main(["--command", "check", "--input", inp, "--m", "1", "--p", "zzz", "--out", str(tmp_path / "r.json")]) == 2


def test_check_subset_budget(tmp_path):
    # 25 points at m = 2: within the subset budget, which the variational
    # forms and the sharp profiles share, so all of them are reported
    pts = [0.5 * i for i in range(25)]
    vals = [float((-1) ** i) for i in range(25)]
    inp = write_json_input(tmp_path / "big.json", pts, vals)
    out = tmp_path / "report.json"
    assert main(["--command", "check", "--input", inp, "--m", "2", "--p", "2", "--out", str(out)]) == 0
    got = set(json.loads(out.read_text())["functionals"])
    assert got == {"sequence", "homogeneous_sequence", "variational", "homogeneous_variational", "sharp_maximal"}
    # 52 points at m = 3: the subsets of at most 4 points exceed the budget; the inhomogeneous
    # variational form and the sharp profiles are skipped, not fatal, and the homogeneous
    # variational form, the homogeneous sequence form at every p, is still reported
    pts = [0.5 * i for i in range(52)]
    vals = [float((-1) ** i) for i in range(52)]
    inp = write_json_input(tmp_path / "bigger.json", pts, vals)
    assert main(["--command", "check", "--input", inp, "--m", "3", "--p", "2", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["functionals"]) == {"sequence", "homogeneous_sequence", "homogeneous_variational"}
    # at p = inf the variational forms are window maxima, outside the budget
    assert main(["--command", "check", "--input", inp, "--m", "3", "--p", "inf", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["functionals"]) == {
        "sequence", "homogeneous_sequence", "variational", "homogeneous_variational"
    }
    # 30 points at m = 29: one window, but nearly all 2^30 subsets in the
    # table, so the finite-p inhomogeneous variational form is skipped
    pts, vals = pts[:30], vals[:30]
    inp = write_json_input(tmp_path / "high_m.json", pts, vals)
    assert main(["--command", "check", "--input", inp, "--m", "29", "--p", "2", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["functionals"]) == {"sequence", "homogeneous_sequence", "homogeneous_variational"}
    assert main(["--command", "check", "--input", inp, "--m", "40", "--p", "inf", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["functionals"]) == {"sequence", "small_set", "variational"}


def test_maximal_past_twenty_points(tmp_path, capsys):
    pts = [0.5 * i for i in range(25)]
    inp = write_json_input(tmp_path / "big.json", pts, [float((-1) ** i) for i in range(25)])
    out = tmp_path / "prof.csv"
    assert main(["--command", "maximal", "--input", inp, "--m", "2", "--p", "2", "--grid-h", "0.25", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("wmf,")
    assert len(out.read_text().splitlines()) == 1 + 57  # a header, then the edges of 0.25 cells on [-1, 13]


@pytest.mark.parametrize(
    "points, values, m, backend, code",
    [
        ([0, 0.1, 0.2], [1, -1, 1], 75, "hermite", 3),  # an L^2 integral overflows
        ([0, 0.01, *range(1, 9)], [(-1) ** i for i in range(10)], 60, "hermite", 3),
        ([0, 0.1, 0.2], [1, -1, 1], 90, "natural2", 4),  # (2m-1)! overflows a float
        ([0, 0.1, 0.2], [1, -1, 1], 200, "hermite", 4),
        ([0, 0.01, *range(1, 9)], [(-1) ** i for i in range(10)], 85, "hermite", 3),  # h**k underflows
    ],
)
def test_extend_high_order_overflow_is_typed(tmp_path, capsys, points, values, m, backend, code):
    inp = write_json_input(tmp_path / "in.json", points, values)
    out = tmp_path / "out.json"
    args = ["--command", "extend", "--input", inp, "--m", str(m), "--p", "2", "--backend", backend, "--out", str(out)]
    assert main(args) == code
    assert capsys.readouterr().err.startswith(("numerical failure:", "unsupported:"))
    assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize(
    "command, p, values",
    [
        ("check", "400", [10, -20, 5, 30]),  # 30^400 overflows
        ("check", "2", [1e200, -2e200, 5e199, 3e200]),
        ("maximal", "250", [10, -20, 5, 30]),  # the sharp-maximal power sum
        ("check", "2", [1.3e154] * 4),  # finite terms, each 1.69e308, whose sum overflows
        ("check", "inf", [1e308, -1e308, 1e308, -1e308]),  # a first difference overflows
    ],
)
def test_power_sum_overflow_is_typed(tmp_path, capsys, command, p, values):
    inp = write_json_input(tmp_path / "in.json", [0, 1, 2, 3.5], values)
    out = tmp_path / "out.json"
    args = ["--command", command, "--input", inp, "--m", "1", "--p", p, "--grid-h", "0.05", "--out", str(out)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and ("lower p" in err) == (p != "inf")
    assert not out.exists()  # a failed job leaves no output behind


@pytest.mark.parametrize(
    "command, flags",
    [
        ("check", ["--grid-h", "nan"]),
        ("check", []),  # the default grid follows the 1e-9 gap: about 6e11 cells
        ("maximal", ["--grid-h", "nan"]),
        ("extend", ["--grid-h", "-1"]),
        ("extend", ["--grid-h", "1e-300"]),  # over the sampling budget
        ("extend", ["--window-pad", "nan"]),
        ("extend", ["--window-pad", "inf"]),
        ("extend", ["--tol", "nan"]),
        ("compare", ["--m", "10"]),  # the corpus draws m+1..10 points: unsupported, exit code 4
        ("compare", ["--seed", "-1"]),
        ("compare", ["--grid-h", "0"]),
        ("compare", ["--p", "inf"]),  # compare reports finite-p ratios: unsupported, exit code 4
        ("check", ["--m", "0"]),
    ],
)
def test_bad_numeric_flag_rejected(tmp_path, capsys, command, flags):
    inp = write_json_input(tmp_path / "in.json", [0, 1e-9, 10], [1.0, 2.0, 3.0])
    out = tmp_path / "out.json"
    args = ["--command", command, "--input", inp, "--m", "1", "--p", "1.5", *flags, "--out", str(out)]
    code, prefix = (4, "unsupported:") if flags in (["--m", "10"], ["--p", "inf"]) else (2, "input error:")
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert not out.exists()


def test_extend_csv_out_path_keeps_both_files(tmp_path):
    inp = write_json_input(tmp_path / "in.json", [0, 1, 3], [1.0, -1.0, 0.5])
    out = tmp_path / "ext.csv"
    assert main(["--command", "extend", "--input", inp, "--m", "1", "--p", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["backend"] == "hermite"
    assert (tmp_path / "ext.csv.csv").read_text().startswith("x,F,d1F")


def _parsed_csv(text):
    """Header and rows of a CSV file, each cell a float where it parses as one."""

    def cell(c):
        try:
            return float(c)
        except ValueError:
            return c

    header, *rows = text.splitlines()
    return header.split(","), [[cell(c) for c in row.split(",")] for row in rows]


def _assert_old_encoding(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        assert text == oracles.json_text(json.loads(text))
    else:
        assert text == oracles.csv_text(*_parsed_csv(text))


@pytest.mark.parametrize(
    "args",
    [
        ["--command", "check", "--m", "2", "--p", "1.5", "--grid-h", "0.25"],
        ["--command", "check", "--m", "3", "--p", "inf"],
        *(
            ["--command", "extend", "--m", str(m), "--p", p, "--backend", backend]
            for backend in ("hermite", "natural2")
            for m, p in ((1, "1.5"), (2, "3"), (3, "inf"))
        ),
        ["--command", "maximal", "--m", "2", "--p", "1.5", "--grid-h", "0.1"],
        ["--command", "compare", "--m", "1", "--p", "1.5", "--seed", "3"],
    ],
)
def test_outputs_equal_old_encoders(tmp_path, args):
    # every file is byte for byte what json.dumps(indent=2, sort_keys=True)
    # and per-cell f"{v:.17g}" give for its content
    rng = np.random.default_rng(4)
    pts = np.sort(rng.uniform(-50.0, 50.0, 9)).tolist()
    inp = write_json_input(tmp_path / "in.json", pts, rng.standard_normal(9).tolist())
    out = tmp_path / ("out.csv" if args[1] in ("maximal", "compare") else "out.json")
    assert main([*args, "--input", inp, "--out", str(out)]) == 0
    files = [out] + ([out.with_suffix(".csv")] if args[1] == "extend" else [])
    for path in files:
        _assert_old_encoding(path)
    if args[1] == "extend":
        payload = json.loads(out.read_text())
        assert payload["p"] == ("inf" if "inf" in args else float(args[args.index("--p") + 1]))
        F = PiecewisePolynomial.from_dict(payload)
        assert {key: payload[key] for key in F.to_dict()} == F.to_dict()


EDGE_VALUES = [-0.0, 5e-324, 1e308, 1e16, 0.1, -2.5e-7, 123456789.125, 1.0]


def test_writers_equal_old_encoders_on_edge_values(tmp_path):
    table = np.array(EDGE_VALUES).reshape(4, 2)
    payload = {
        "breakpoints": np.array(EDGE_VALUES),
        "pieces": table,
        "left_tail": np.array([-0.0]),  # one-element tails, as constant pieces have
        "right_tail": np.array([0.1]),
        "single": np.array([[7.0]]),
        "empty": np.zeros(0),
        "nested": {"rows": [np.array([1e-300, 2.0]), "text"], "n": 3},
        "p": "inf",
        "norms": {"lp_norms": [1.5, "inf"], "w_norm": "inf"},
    }
    old = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}
    old["nested"] = {"rows": [[1e-300, 2.0], "text"], "n": 3}
    cli.write_json(str(tmp_path / "a.json"), payload)
    assert (tmp_path / "a.json").read_text() == oracles.json_text(old)
    cells = np.array(EDGE_VALUES + [math.inf, -math.inf, math.nan, 1e-5]).reshape(6, 2)
    cli.write_csv(str(tmp_path / "a.csv"), ["x", "y"], cells)
    assert (tmp_path / "a.csv").read_text() == oracles.csv_text(["x", "y"], cells)
    cli.write_csv(str(tmp_path / "b.csv"), ["x"], np.zeros((0, 1)))
    assert (tmp_path / "b.csv").read_text() == "x\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_write_json_refuses_non_finite_arrays(tmp_path, bad):
    with pytest.raises(ValueError):
        oracles.json_text({"values": [0.0, bad]})
    with pytest.raises(ValueError):
        cli.write_json(str(tmp_path / "a.json"), {"values": np.array([0.0, bad])})
