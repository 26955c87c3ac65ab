import json

import pytest

from sobtrace import PiecewisePolynomial, cli, extension
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


def test_unsorted_input_rejected(tmp_path):
    inp = write_json_input(tmp_path / "bad.json", [1, 0], [0, 0])
    out = tmp_path / "r.json"
    assert main(["--command", "check", "--input", inp, "--m", "1", "--p", "2", "--out", str(out)]) == 2


def test_malformed_input_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    out = tmp_path / "r.json"
    for text in (
        "{not json",
        '{"points": [0, "a"], "values": [1, 2]}',
        '{"points": [0, 1], "values": [1, null]}',
        '{"points": [0, [0, 1]], "values": [1, 2]}',
        '{"points": 5, "values": [1]}',
        '{"points": "01", "values": "12"}',
    ):
        bad.write_text(text)
        assert main(["--command", "check", "--input", str(bad), "--m", "1", "--p", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("input error:")
    missing = tmp_path / "missing.json"
    assert main(["--command", "check", "--input", str(missing), "--m", "1", "--p", "2", "--out", str(out)]) == 2


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
    calls = []
    for module in (cli, extension):
        norm = module.sobolev_norm
        monkeypatch.setattr(module, "sobolev_norm", lambda *a, norm=norm: calls.append(1) or norm(*a))
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
    assert len(calls) == 2 * len(data_rows)  # one norm per backend and instance
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
    # 52 points at m = 3: the subsets of at most 4 points exceed the budget; the variational
    # forms and the sharp profiles are skipped, not fatal
    pts = [0.5 * i for i in range(52)]
    vals = [float((-1) ** i) for i in range(52)]
    inp = write_json_input(tmp_path / "bigger.json", pts, vals)
    assert main(["--command", "check", "--input", inp, "--m", "3", "--p", "2", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["functionals"]) == {"sequence", "homogeneous_sequence"}
    # 30 points at m = 29, or at m = 40 with p = inf: one window, or none,
    # but nearly all 2^30 subsets in the table, so the variational forms are skipped
    pts, vals = pts[:30], vals[:30]
    inp = write_json_input(tmp_path / "high_m.json", pts, vals)
    assert main(["--command", "check", "--input", inp, "--m", "29", "--p", "2", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["functionals"]) == {"sequence", "homogeneous_sequence"}
    assert main(["--command", "check", "--input", inp, "--m", "40", "--p", "inf", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["functionals"]) == {"sequence", "small_set"}


def test_maximal_past_twenty_points(tmp_path, capsys):
    pts = [0.5 * i for i in range(25)]
    inp = write_json_input(tmp_path / "big.json", pts, [float((-1) ** i) for i in range(25)])
    out = tmp_path / "prof.csv"
    assert main(["--command", "maximal", "--input", inp, "--m", "2", "--p", "2", "--grid-h", "0.25", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("wmf,")
    assert len(out.read_text().splitlines()) == 1 + 57  # a header, then the edges of 0.25 cells on [-1, 13]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
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
    ],
)
def test_bad_numeric_flag_rejected(tmp_path, capsys, command, flags):
    inp = write_json_input(tmp_path / "in.json", [0, 1e-9, 10], [1.0, 2.0, 3.0])
    out = tmp_path / "out.json"
    args = ["--command", command, "--input", inp, "--m", "1", "--p", "1.5", *flags, "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert not out.exists()


def test_extend_csv_out_path_keeps_both_files(tmp_path):
    inp = write_json_input(tmp_path / "in.json", [0, 1, 3], [1.0, -1.0, 0.5])
    out = tmp_path / "ext.csv"
    assert main(["--command", "extend", "--input", inp, "--m", "1", "--p", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["backend"] == "hermite"
    assert (tmp_path / "ext.csv.csv").read_text().startswith("x,F,d1F")
