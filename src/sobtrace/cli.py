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
import re
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
from .extension import ExtensionConfig, extend, extensions, verify_necessities
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
from .sharp import GridSpec, grid_cells, grid_edges, profile_values, wmf_functional, wmf_functionals
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
    difference downstream.  A file that cannot be read as UTF-8 text raises
    InvalidInputError naming the path.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read input file {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    if p.suffix.lower() == ".json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(obj, dict) or "points" not in obj or "values" not in obj:
            raise InvalidInputError(f"{path}: expected an object with 'points' and 'values'")
        return SampledFunction(obj["points"], obj["values"])
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


def _json_template(shape: tuple, depth: int) -> str:
    """The layout ``json.dumps(indent=2)`` gives a nested list of this shape
    opened at this depth, with %r (``float.__repr__``, as json) per number."""
    pad = "\n" + "  " * (depth + 1)
    inner = _json_template(shape[1:], depth + 1) if len(shape) > 1 else "%r"
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + "\n" + "  " * depth + "]" if shape[0] else "[]"


def write_json(path: str, obj) -> None:
    """``json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2,
    allow_nan=False)`` and a newline, where a numpy float array in obj is
    written as the nested list of its values: json writes a placeholder
    "\\0<i>" (no path or key holds a NUL), replaced by the array's text from
    one %-format."""
    texts: list[str] = []

    def swap(v, depth):
        if isinstance(v, np.ndarray):
            if not np.all(np.isfinite(v)):
                raise ValueError("Out of range float values are not JSON compliant")
            texts.append(_json_template(v.shape, depth) % tuple(v.ravel().tolist()))
            return f"\0{len(texts) - 1}"
        if isinstance(v, dict):
            return {k: swap(x, depth + 1) for k, x in v.items()}
        return [swap(x, depth + 1) for x in v] if isinstance(v, (list, tuple)) else v

    text = json.dumps(swap(obj, 0), sort_keys=True, ensure_ascii=False, indent=2, allow_nan=False)
    text = re.sub(r'"\\u0000(\d+)"', lambda match: texts[int(match[1])], text)
    _write_text(path, text + "\n")


def write_csv(path: str, header: list[str], rows) -> None:
    """Rows of string cells, or a 2-D float array whose cells are written as
    ``f"{v:.17g}"`` by one %-format."""
    if isinstance(rows, np.ndarray):
        body = ((",".join(["%.17g"] * rows.shape[1]) + "\n") * len(rows)) % tuple(rows.ravel().tolist())
    else:
        body = "".join(",".join(row) + "\n" for row in rows)
    _write_text(path, ",".join(header) + "\n" + body)


def _write_text(path: str, text: str) -> None:
    """Write UTF-8 text; a path that cannot be written raises InvalidInputError naming it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror or exc}") from exc


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
    feasible = p == math.inf or variational_feasible(len(s), m)  # p = inf enumerates nothing
    if feasible and (p == math.inf or len(s) >= m + 1):
        record("variational", variational_functional(s, m, p))
    if len(s) >= m + 1:
        record("homogeneous_sequence", homogeneous_sequence_functional(s, m, p))
        record("homogeneous_variational", homogeneous_variational_functional(s, m, p))
    if p != math.inf and feasible:  # reads the subset table the variational form built
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
    payload = {
        "breakpoints": F.breakpoints, "pieces": F.coefficients,  # F.to_dict(), from the arrays
        "left_tail": F.left_tail, "right_tail": F.right_tail,
        "command": "extend",
        "m": args.m,
        "p": _p_label(args.p),
        "backend": args.backend,
        "window_pad": cfg.window_pad,
        "norms": {"lp_norms": list(norms.lp_norms), "w_norm": norms.w_norm, "l_homog": norms.l_homog},
    }
    write_json(args.out, payload)
    n_samples = cells + 1
    xs = np.linspace(F.breakpoints[0], F.breakpoints[-1], n_samples)
    derivs = [F]
    for _ in range(args.m):
        derivs.append(derivs[-1].differentiate())
    header = ["x", "F"] + [f"d{k}F" for k in range(1, args.m + 1)]
    write_csv(_csv_companion(args.out), header, np.column_stack([xs] + [d(xs) for d in derivs]))
    return EXIT_OK


def cmd_maximal(args: argparse.Namespace) -> int:
    if args.p == math.inf:
        raise UnsupportedError("the sharp-maximal profile command needs finite p")
    s = load_samples(args.input or _missing_input())
    spec = GridSpec(args.grid_h)
    edges = grid_edges(s, spec)
    columns = [profile_values(s, args.m, k, edges) for k in range(args.m + 1)]
    wmf = wmf_functional(s, args.m, args.p, spec)  # before writing, so a failed job leaves no file
    header = ["x"] + [f"sharp{k}" for k in range(args.m + 1)]
    write_csv(args.out, header, np.column_stack([edges, *columns]))
    sys.stdout.write(f"wmf,{_fmt(wmf.value)}\n")
    return EXIT_OK


_RATIO_COLUMNS = ("tilde_over_var", "w_hermite_over_tilde", "w_natural2_over_tilde", "wmf_over_tilde")


def cmd_compare(args: argparse.Namespace) -> int:
    if args.p == math.inf:
        raise UnsupportedError("compare reports finite-p ratios; use a finite p")
    m, p = args.m, args.p
    instances = comparison_corpus(args.seed, m)
    header = ["index", "m", "p", "n_points", "span", "tilde", "variational", "w_hermite", "w_natural2", "wmf",
              *_RATIO_COLUMNS, "necessity_hermite", "necessity_natural2"]
    sets = [inst.samples for inst in instances]
    tildes = [sequence_functional(s, m, p).value for s in sets]
    configs = [ExtensionConfig(m=m, backend=backend, window_pad=args.window_pad) for backend in ("hermite", "natural2")]
    # one necessity pass over every (set, extension) pair and one sharp-maximal pass over the sets;
    # the necessity functional is the variational form, as the sets have m+1..10 points
    necessity = verify_necessities(sets, list(zip(*(extensions(sets, cfg) for cfg in configs))), m, p, args.tol)
    wmfs = wmf_functionals(sets, m, p, GridSpec(0.25 if args.grid_h is None else args.grid_h))
    rows, ratios = [], []
    for idx, (inst, tilde, wmf) in enumerate(zip(instances, tildes, wmfs)):
        hermite, natural2 = necessity[2 * idx : 2 * idx + 2]
        values = (hermite.functional, hermite.extension_norm, natural2.extension_norm, wmf.value)
        ratios.append([tilde / values[0] if values[0] else 0.0, *(v / tilde if tilde else 0.0 for v in values[1:])])
        rows.append([str(idx), str(m), _fmt(p), str(len(inst.samples)), *map(_fmt, (inst.span, tilde, *values, *ratios[-1]))]
                    + ["pass" if r.passed else "fail" for r in (hermite, natural2)])
    for tag, agg in (("min", min), ("max", max)):
        rows.append([tag, str(m), _fmt(p), "", "", "", "", "", "", ""] + [_fmt(agg(col)) for col in zip(*ratios)] + ["", ""])
    write_csv(args.out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------- main


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
