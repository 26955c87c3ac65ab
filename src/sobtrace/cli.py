"""Batch command-line interface.

One job per invocation: load a point set, run the requested command, write
files.  Identical job plus identical input produces byte-identical output.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 unsupported
combination.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .corpus import comparison_corpus
from .errors import (
    HypothesisViolationError,
    InvalidInputError,
    NonintegrableError,
    NumericalFailureError,
    SizeCapError,
    UnsupportedError,
)
from .extension import ExtensionConfig, extend, verify_necessity
from .functionals import (
    effective_order,
    homogeneous_sequence_functional,
    homogeneous_variational_functional,
    sequence_functional,
    small_set_functional,
    variational_feasible,
    variational_functional,
)
from .samples import SampledFunction
from .sharp import GridSpec, grid_cells, grid_edges, profile_values, wmf_functional
from .splines import sobolev_norm

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_UNSUPPORTED = 4


def _parse_p(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    try:
        p = float(text)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse p from {text!r}") from exc
    if not p > 1:
        raise InvalidInputError(f"p must be > 1 or 'inf', got {text}")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobtrace",
        description=(
            "Trace-norm functionals and compactly supported smooth extensions "
            "for scattered samples on the line."
        ),
    )
    parser.add_argument("--command", required=True, choices=["check", "extend", "maximal", "compare"])
    parser.add_argument("--input", help="JSON {points, values} or two-column CSV")
    parser.add_argument("--m", type=int, required=True, help="smoothness order, >= 1")
    parser.add_argument("--p", default="2", help="integrability exponent > 1, or 'inf'")
    parser.add_argument("--backend", default="hermite", choices=["hermite", "natural2"])
    parser.add_argument("--window-pad", type=float, default=None, help="support half-width beyond the data; default 3(m+2)")
    parser.add_argument("--out", required=True, help="output path")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed for compare")
    parser.add_argument("--grid-h", type=float, default=None, help="grid spacing for profiles and sampling")
    parser.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
    return parser


# ------------------------------------------------------------------- loading


def load_samples(path: str) -> SampledFunction:
    """Load a point set from JSON or two-column CSV.

    Points must already be strictly increasing; nothing is sorted silently,
    because silently reordered data hides bugs that corrupt every divided
    difference downstream.
    """
    p = Path(path)
    if not p.exists():
        raise InvalidInputError(f"input file not found: {path}")
    text = p.read_text(encoding="utf-8")
    if p.suffix.lower() == ".json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(obj, dict) or "points" not in obj or "values" not in obj:
            raise InvalidInputError(f"{path}: expected an object with 'points' and 'values'")
        return SampledFunction(tuple(obj["points"]), tuple(obj["values"]))
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise InvalidInputError(f"{path}:{lineno}: expected two comma-separated columns")
        try:
            rows.append((float(cells[0]), float(cells[1])))
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise InvalidInputError(f"{path}:{lineno}: cannot parse numbers from {line!r}")
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    return SampledFunction(tuple(x for x, _ in rows), tuple(v for _, v in rows))


# ------------------------------------------------------------------- writing


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v > 0 else "-inf"
    return v


def write_json(path: str, obj) -> None:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _p_label(p: float) -> object:
    return "inf" if p == math.inf else p


# ------------------------------------------------------------------ commands


def cmd_check(args: argparse.Namespace) -> int:
    s = load_samples(args.input or _missing_input())
    m, p = args.m, args.p
    functionals: dict[str, dict] = {}

    def record(name, report):
        functionals[name] = {"value": report.value, "kind": report.kind}

    record("sequence", sequence_functional(s, m, p))
    small_route = len(s) <= m
    if small_route:
        record("small_set", small_set_functional(s, m, p))
    feasible = variational_feasible(len(s), m)
    if feasible and (p == math.inf or len(s) >= m + 1):
        record("variational", variational_functional(s, m, p))
    if len(s) >= m + 1:
        record("homogeneous_sequence", homogeneous_sequence_functional(s, m, p))
        if feasible:
            record("homogeneous_variational", homogeneous_variational_functional(s, m, p))
    if p != math.inf and feasible:
        record("sharp_maximal", wmf_functional(s, m, p, GridSpec(args.grid_h)))
    report = {
        "command": "check",
        "input": args.input,
        "n_points": len(s),
        "m": m,
        "p": _p_label(p),
        "effective_order": effective_order(s, m),
        "small_set_route": small_route,
        "functionals": functionals,
        "conventions": {
            "weight": "min(1, x[i+m] - x[i]) with weight exactly 1 when i+m passes the last index",
            "p_infinity_literal": "inf",
            "effective_order": "min(m, n_points - 1)",
        },
    }
    write_json(args.out, report)
    return EXIT_OK


def _missing_input() -> str:
    raise InvalidInputError("--input is required for this command")


def _csv_companion(out_path: str) -> str:
    p = Path(out_path)
    if p.suffix.lower() == ".json":
        return str(p.with_suffix(".csv"))
    return str(p) + ".csv"


def cmd_extend(args: argparse.Namespace) -> int:
    s = load_samples(args.input or _missing_input())
    h = None if args.grid_h is None else GridSpec(args.grid_h).spacing_for(s)
    cfg = ExtensionConfig(m=args.m, backend=args.backend, window_pad=args.window_pad)
    F = extend(s, cfg)
    span = F.breakpoints[-1] - F.breakpoints[0]
    (cells,) = grid_cells([span], h or span / 512)
    norms = sobolev_norm(F, args.m, args.p, args.tol)
    payload = F.to_dict()
    payload.update(
        {
            "command": "extend",
            "m": args.m,
            "p": _p_label(args.p),
            "backend": args.backend,
            "window_pad": cfg.window_pad,
            "norms": {
                "lp_norms": [_jsonable(v) for v in norms.lp_norms],
                "w_norm": _jsonable(norms.w_norm),
                "l_homog": _jsonable(norms.l_homog),
            },
        }
    )
    write_json(args.out, payload)
    n_samples = cells + 1
    xs = np.linspace(F.breakpoints[0], F.breakpoints[-1], n_samples)
    derivs = [F]
    for _ in range(args.m):
        derivs.append(derivs[-1].differentiate())
    cols = [xs] + [d(xs) for d in derivs]
    header = ["x", "F"] + [f"d{k}F" for k in range(1, args.m + 1)]
    rows = [[_fmt(col[i]) for col in cols] for i in range(n_samples)]
    write_csv(_csv_companion(args.out), header, rows)
    return EXIT_OK


def cmd_maximal(args: argparse.Namespace) -> int:
    if args.p == math.inf:
        raise UnsupportedError("the sharp-maximal profile command needs finite p")
    s = load_samples(args.input or _missing_input())
    spec = GridSpec(args.grid_h)
    edges = grid_edges(s, spec)
    columns = [profile_values(s, args.m, k, edges) for k in range(args.m + 1)]
    header = ["x"] + [f"sharp{k}" for k in range(args.m + 1)]
    rows = [
        [_fmt(edges[i])] + [_fmt(col[i]) for col in columns] for i in range(len(edges))
    ]
    write_csv(args.out, header, rows)
    wmf = wmf_functional(s, args.m, args.p, spec)
    sys.stdout.write(f"wmf,{_fmt(wmf.value)}\n")
    return EXIT_OK


_RATIO_COLUMNS = ("tilde_over_var", "w_hermite_over_tilde", "w_natural2_over_tilde", "wmf_over_tilde")


def cmd_compare(args: argparse.Namespace) -> int:
    if args.p == math.inf:
        raise UnsupportedError("compare reports finite-p ratios; use a finite p")
    m, p = args.m, args.p
    instances = comparison_corpus(args.seed, m)
    header = [
        "index",
        "m",
        "p",
        "n_points",
        "span",
        "tilde",
        "variational",
        "w_hermite",
        "w_natural2",
        "wmf",
        *_RATIO_COLUMNS,
        "necessity_hermite",
        "necessity_natural2",
    ]
    rows = []
    ratios: dict[str, list[float]] = {name: [] for name in _RATIO_COLUMNS}
    for idx, inst in enumerate(instances):
        s = inst.samples
        tilde = sequence_functional(s, m, p).value
        var = variational_functional(s, m, p).value
        values = {}
        passes = {}
        for backend in ("hermite", "natural2"):
            cfg = ExtensionConfig(m=m, backend=backend, window_pad=args.window_pad)
            F = extend(s, cfg)
            values[backend] = sobolev_norm(F, m, p, args.tol).w_norm
            passes[backend] = verify_necessity(s, F, m, p, args.tol).passed
        wmf = wmf_functional(s, m, p, GridSpec(args.grid_h if args.grid_h else 0.25)).value
        row_ratios = {
            "tilde_over_var": tilde / var if var else 0.0,
            "w_hermite_over_tilde": values["hermite"] / tilde if tilde else 0.0,
            "w_natural2_over_tilde": values["natural2"] / tilde if tilde else 0.0,
            "wmf_over_tilde": wmf / tilde if tilde else 0.0,
        }
        for name in _RATIO_COLUMNS:
            ratios[name].append(row_ratios[name])
        rows.append(
            [
                str(idx),
                str(m),
                _fmt(p),
                str(len(s)),
                _fmt(inst.span),
                _fmt(tilde),
                _fmt(var),
                _fmt(values["hermite"]),
                _fmt(values["natural2"]),
                _fmt(wmf),
                *[_fmt(row_ratios[name]) for name in _RATIO_COLUMNS],
                "pass" if passes["hermite"] else "fail",
                "pass" if passes["natural2"] else "fail",
            ]
        )
    for tag, agg in (("min", min), ("max", max)):
        rows.append(
            [tag, str(m), _fmt(p), "", "", "", "", "", "", ""]
            + [_fmt(agg(ratios[name])) for name in _RATIO_COLUMNS]
            + ["", ""]
        )
    write_csv(args.out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.m < 1:
            raise InvalidInputError(f"m must be >= 1, got {args.m}")
        args.p = _parse_p(args.p)
        # looked up at call time, so a wrapped cmd_* is the one that runs
        handler = {
            "check": cmd_check,
            "extend": cmd_extend,
            "maximal": cmd_maximal,
            "compare": cmd_compare,
        }[args.command]
        return handler(args)
    except (HypothesisViolationError, SizeCapError, InvalidInputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalFailureError, NonintegrableError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    raise SystemExit(main())
