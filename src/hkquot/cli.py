"""Command-line surface: batch analyses over weight-system JSON files.

Subcommands: analyze, classify, kn, metric, hirzebruch.  All output is
deterministic for a fixed configuration and seed; JSON payloads carry
"schema": 1 and validate against the documents shipped in
hkquot/schemas/.  Every format (json, csv, table) is written as it is
made, never held whole.  Exit codes: 0 success, 2 precondition or parse
error, 3 assertion failure, 4 undecided, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import BoundExceededError, PreconditionError, UndecidedError
from .git_stability import (
    DEFAULT_BOUND,
    StabilizerInfo,
    check_bound,
    classify_point,
    cotangent_unstable_supports,
    kahler_strata,
    quotient_compact,
    strata_smoothness,
    unstable_maximal_supports,
)
from .hk_reduction import (
    _sig12,
    frame_report_json,
    horizontal_frame,
    reduced_form,
    reduced_metric,
)
from .kempf_ness import solve_hyperkahler, solve_kahler
from .moment_maps import flow_trace
from .rep_core import (
    AmbientPoint,
    CotangentPoint,
    WeightSystem,
    ambient_point_from_json,
    cotangent_point_from_json,
    doubled_weights,
    weight_system_from_json,
    weight_system_to_json,
)
from .scalars import parse_rational
from .strata_examples import (
    HKStratumCandidate,
    hirzebruch_suite,
    hk_candidate_strata,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_ASSERTION = 3
EXIT_UNDECIDED = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports `yes | head`


@dataclass(frozen=True)
class RunConfig:
    mode: str = "exact"
    tol: float = 1e-10
    bound: int = DEFAULT_BOUND
    seed: int = 0
    fmt: str = "json"
    trace: bool = False


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_PRECONDITION):
        super().__init__(message)
        self.code = code


def _load_json_text(text: str, origin: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"parse error in {origin} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _load_json_arg(arg: str, origin: str, load=_load_json_text):
    """load(text, origin) of the inline JSON when the argument looks like
    it, else of a file path's text, read on every call."""
    if arg.lstrip().startswith(("{", "[")):
        return load(arg, origin)
    path = Path(arg)
    if not path.exists():
        raise CliError(f"{origin}: no such file: {arg}")
    return load(path.read_text(), str(path))


def _load_weights(arg: str) -> WeightSystem:
    return _load_json_arg(arg, "weights", _weights_from_text)


@lru_cache(maxsize=64)
def _weights_from_text(text: str, origin: str) -> WeightSystem:
    # one instance per text, so its numeric_view is built once; errors are not cached
    data = _load_json_text(text, origin)
    try:
        return weight_system_from_json(data)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid weight system: {exc}") from None


def _numeric_part(v) -> float:
    """float(parse_rational(v)) without the Fraction for an exact int or a
    finite exact float: both round the same, and + 0.0 turns -0.0 into the
    0.0 that Fraction(-0.0) gives."""
    t = type(v)
    if t is int or (t is float and math.isfinite(v)):
        return float(v) + 0.0
    return float(parse_rational(v))


def _numeric_scalar(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise CliError(f"coordinate must be [re, im], got {v!r}")
        return complex(_numeric_part(v[0]), _numeric_part(v[1]))
    return complex(_numeric_part(v), 0.0)


def _load_point(arg: str, mode: str):
    data = _load_json_arg(arg, "point")
    try:
        if isinstance(data, dict) and "x" in data and "z" in data:
            if mode == "numeric":
                return CotangentPoint.numeric(
                    [_numeric_scalar(v) for v in data["x"]],
                    [_numeric_scalar(v) for v in data["z"]],
                )
            return cotangent_point_from_json(data)
        if not isinstance(data, list):
            raise CliError(f"point must be a list or an x/z object, got {type(data).__name__}")
        if mode == "numeric":
            return AmbientPoint.numeric([_numeric_scalar(v) for v in data])
        return ambient_point_from_json(data)
    except (ValueError, TypeError, OverflowError) as exc:
        raise CliError(f"invalid point: {exc}") from None


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(cfg: RunConfig, weights: str) -> dict:
    ws = _load_weights(weights)
    # the base's n and then the cotangent system's 2n, before any enumeration
    check_bound(ws.n, cfg.bound)
    check_bound(2 * ws.n, cfg.bound)
    strata = kahler_strata(ws, cfg.bound)
    smooth, offending = strata_smoothness(strata)
    return {
        "schema": 1,
        "command": "analyze",
        "weight_system": weight_system_to_json(ws),
        "unstable_maximal_supports": [sorted(s) for s in unstable_maximal_supports(ws, cfg.bound)],
        "unstable_maximal_supports_cotangent": [
            sorted(s) for s in cotangent_unstable_supports(ws, cfg.bound)
        ],
        "compact": quotient_compact(ws),
        "smooth": {
            "smooth": smooth,
            "offending_support": None if offending is None else sorted(offending),
        },
        "kahler_strata": [s.to_json() for s in strata],
        # the frozen candidates themselves, not their dicts
        "hk_candidates": hk_candidate_strata(ws, cfg.bound),
    }


def cmd_classify(cfg: RunConfig, weights: str, point: str) -> dict:
    ws = _load_weights(weights)
    p = _load_point(point, cfg.mode)
    if isinstance(p, CotangentPoint):
        ws = doubled_weights(ws)
        p = p.as_doubled_ambient()
    verdict = classify_point(ws, p)
    return {"schema": 1, "command": "classify", "verdict": verdict.to_json()}


def cmd_kn(cfg: RunConfig, weights: str, point: str, hyperkahler: bool) -> dict:
    ws = _load_weights(weights)
    p = _load_point(point, cfg.mode)
    if hyperkahler:
        if not isinstance(p, CotangentPoint):
            raise CliError("--hyperkahler requires an x/z point")
        out = solve_hyperkahler(ws, p, tol=cfg.tol)
    else:
        if isinstance(p, CotangentPoint):
            raise CliError("plain kn takes an ambient point; pass --hyperkahler for x/z")
        out = solve_kahler(ws, p, tol=cfg.tol)
    payload = {"schema": 1, "command": "kn", "outcome": out.to_json()}
    if cfg.trace:
        xi = out.certificate if out.certificate is not None else out.xi_star
        xi = [0.0] * ws.rank if xi is None else xi
        grid = [float(t) for t in np.linspace(0.0, 30.0, 31)]
        if hyperkahler:
            values = flow_trace(doubled_weights(ws), p.as_doubled_ambient(), xi, grid)
        else:
            values = flow_trace(ws, p, xi, grid)
        payload["trace"] = {
            "t": grid,
            "value": [float(v) if math.isfinite(v) else "inf" for v in values],
        }
    return payload


def cmd_metric(cfg: RunConfig, weights: str, point: str, pairs: Optional[str]) -> dict:
    ws = _load_weights(weights)
    p = _load_point(point, cfg.mode)
    if not isinstance(p, CotangentPoint):
        p = CotangentPoint.numeric(
            p.to_numeric().coords, np.zeros(p.n, dtype=complex)
        )
    frame = horizontal_frame(ws, p)
    report = frame_report_json(frame)
    report.update({"schema": 1, "command": "metric"})
    if pairs is not None:
        data = _load_json_arg(pairs, "tangent-pairs")
        if not isinstance(data, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(w, list) for w in e) for e in data
        ):
            raise CliError(f"invalid tangent pairs: expected a list of [u, v], u and v lists, got {pairs}")
        rows = []
        for u, v in data:
            u = frame.project(np.asarray(u, dtype=float))
            v = frame.project(np.asarray(v, dtype=float))
            rows.append(
                {
                    "g": reduced_metric(frame, u, v),
                    "omega_I": reduced_form(frame, "I", u, v),
                    "omega_J": reduced_form(frame, "J", u, v),
                    "omega_K": reduced_form(frame, "K", u, v),
                }
            )
        report["pairs"] = rows
    return report


def _rational_arg(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise CliError(f"invalid rational: {exc}") from None


def cmd_hirzebruch(cfg: RunConfig, n: int, c0: str, c1: str) -> dict:
    report = hirzebruch_suite(n, _rational_arg(c0), _rational_arg(c1), seed=cfg.seed)
    report.update({"schema": 1, "command": "hirzebruch"})
    return report


# ---------------------------------------------------------------------------
# rendering


def _flatten(prefix: str, value, emit) -> None:
    """Call emit(key, leaf) for each scalar leaf of value, in key order."""
    if type(value) in _SCALAR_JSON:
        emit(prefix, value)
        return
    if type(value) is np.ndarray and value.ndim == 2:
        value = [[_sig12(x) for x in row] for row in value.tolist()]
    elif isinstance(value, HKStratumCandidate):
        value = value.to_json()
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], emit)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, emit)
    else:
        emit(prefix, value)


def _float_json(f: float) -> str:
    # json's spelling of the non-finite floats, float.__repr__ otherwise
    if f != f:
        return "NaN"
    if f == math.inf:
        return "Infinity"
    if f == -math.inf:
        return "-Infinity"
    return float.__repr__(f)


#: the JSON text of a scalar, by its exact type
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _scalar_json(o) -> str:
    """The JSON text of a scalar of any type, subclasses included (json's
    isinstance order); TypeError for anything else, as json raises."""
    f = _SCALAR_JSON.get(type(o))
    if f is not None:
        return f(o)
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_json(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_json(o, nl: str, write) -> None:
    """Write json.dumps(o, sort_keys=True, indent=2) in pieces to `write`,
    o standing at the line break and indent `nl`.

    json writes with its C encoder only when indent is None; with an
    indent every token goes through nested Python generators.  Here a list
    of exact ints, or of exact finite floats, is one piece, and a scalar is
    looked up by its exact type (`_SCALAR_JSON`); subclasses and numpy
    floats take json's isinstance order, and whatever json rejects raises
    TypeError.  A 2-D numpy array is a float matrix, written to 12
    significant digits (`_write_matrix`).  An HK candidate is written as
    its `to_json()` (`_write_candidate`).  There is no circular-reference
    check.
    """
    f = _SCALAR_JSON.get(type(o))
    if f is not None:
        write(f(o))
    elif type(o) is np.ndarray and o.ndim == 2:
        _write_matrix(o, nl, write)
    elif type(o) is HKStratumCandidate:
        _write_candidate(o, nl, write)
    elif isinstance(o, dict):
        if not o:
            write("{}")
            return
        inner = nl + "  "
        head, sep = "{" + inner, "," + inner
        for key, value in sorted(o.items()):
            key = _scalar_json(key) if isinstance(key, str) else '"' + _scalar_json(key) + '"'
            f = _SCALAR_JSON.get(type(value))
            if f is not None:
                write(head + key + ": " + f(value))
            else:
                write(head + key + ": ")
                _write_json(value, inner, write)
            head = sep
        write(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            write("[]")
            return
        inner = nl + "  "
        head, sep = "[" + inner, "," + inner
        kinds = set(map(type, o))
        if kinds == {int}:
            write(head + sep.join(map(int.__repr__, o)) + nl + "]")
            return
        if kinds == {float}:
            text = sep.join(map(float.__repr__, o))
            if "n" not in text:  # no nan or inf, which json spells NaN and Infinity
                write(head + text + nl + "]")
                return
        for value in o:
            f = _SCALAR_JSON.get(type(value))
            if f is not None:
                write(head + f(value))
            else:
                write(head)
                _write_json(value, inner, write)
            head = sep
        write(nl + "]")
    else:
        write(_scalar_json(o))


def _write_matrix(m: np.ndarray, nl: str, write) -> None:
    """Write the JSON of m's rows of `_sig12` values from one "%.12g" text
    per row, no float parsed back; a matrix equal to its transpose bit for
    bit, as g = H H^T is, formats each mirrored pair once.

    A token, ".0" appended to an integer one, is the repr of its `_sig12`
    value: for a normal double the shortest repr of float(D), D a decimal of
    at most 12 digits, has D's digits, since distinct decimals of at most 15
    digits are distinct doubles (Steele and White 1990; Gay 1990).  Only the
    layout can differ, and such a row is written from its `_sig12` values:
    for "e+1" (repr writes exponents 12 to 15 in fixed point), "e-3" (below
    1e-300 may be a subnormal, with fewer digits) and "n" (nan and inf).
    """
    inner = nl + "  "
    sep, fmt = "," + inner + "  ", "%.12g " * m.shape[1]
    mirror = m.shape[0] == m.shape[1] and m.tobytes() == m.T.tobytes()
    rows, head = [], "[" + inner
    for i, row in enumerate(m.tolist()):
        start = i if mirror else 0
        new = (fmt[6 * start:] % tuple(row[start:])).split()
        rows.append([r[i] for r in rows[:start]] + [t if "." in t or "e" in t else t + ".0" for t in new])
        text = sep.join(rows[-1])
        if not text or "e+1" in text or "e-3" in text or "n" in text:
            write(head)
            _write_json([_sig12(x) for x in row], inner, write)
        else:
            write(head + "[" + inner + "  " + text + inner + "]")
        head = "," + inner
    write(nl + "]" if rows else "[]")


@lru_cache(maxsize=1 << 14)
def _field_json(field, nl: str) -> str:
    """The JSON text of an HK candidate's support, stabilizer or status at
    `nl`, made once for each distinct value (the cache has room for all of
    the supports and stabilizers of a system with n <= 12)."""
    if isinstance(field, frozenset):
        field = sorted(field)
    elif isinstance(field, StabilizerInfo):
        field = field.to_json()
    buf = io.StringIO()
    _write_json(field, nl, buf.write)
    return buf.getvalue()


def _write_candidate(c: HKStratumCandidate, nl: str, write) -> None:
    """Write c.to_json(); a bare candidate, with no witness, no residual and
    an empty log, is joined from the texts of its fields, with no dict."""
    if c.witness is not None or c.witness_residual is not None or c.log:
        _write_json(c.to_json(), nl, write)
        return
    i = nl + "  "
    write(f'{{{i}"log": [],{i}"stabilizer": {_field_json(c.stabilizer, i)},{i}"status": {_field_json(c.status, i)},'
          f'{i}"support_x": {_field_json(c.support_x, i)},{i}"support_z": {_field_json(c.support_z, i)},'
          f'{i}"witness": null,{i}"witness_residual": null{nl}}}')


def hirzebruch_report_text(report: dict) -> str:
    """Human-readable PASS/FAIL table with expected-vs-actual on failures."""
    lines = [f"Hirzebruch suite n={report['n']} c0={report['c0']} c1={report['c1']}"]
    for a in report["assertions"]:
        mark = "PASS" if a["passed"] else "FAIL"
        lines.append(f"  [{mark}] {a['name']}")
        if not a["passed"]:
            lines.append(f"    expected: {a['expected']}")
            lines.append(f"    actual:   {a['actual']}")
    lines.append("result: " + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines)


def _write(payload: dict, fmt: str, write) -> None:
    """Write payload as fmt to `write` in pieces: csv and table rows are a
    leaf's path and JSON text, the table's keys padded to the longest."""
    if fmt == "json":
        # the text of json.dumps(payload, sort_keys=True, indent=2)
        _write_json(payload, "\n", write)
    elif fmt == "table" and payload.get("command") == "hirzebruch":
        write(hirzebruch_report_text(payload))
    elif fmt == "csv":
        write("key,value")
        _flatten("", payload, lambda key, leaf: write(
            "\n" + key + ',"' + _scalar_json(leaf).replace('"', '""') + '"'))
    else:
        width, head = 0, ""

        def widen(key, _):
            nonlocal width
            if len(key) > width:
                width = len(key)

        def row(key, leaf):
            nonlocal head
            write(head + key.ljust(width) + "  " + _scalar_json(leaf))
            head = "\n"

        _flatten("", payload, widen)
        _flatten("", payload, row)


def render(payload: dict, fmt: str) -> str:
    buf = io.StringIO()
    _write(payload, fmt, buf.write)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkquot",
        description="Stability, moment-map, and reduction analyses for linear torus actions.",
    )
    parser.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "table", "csv"), default="json")
    parser.add_argument("--trace", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full combinatorial report for a weight system")
    p.add_argument("weights")

    p = sub.add_parser("classify", help="stability verdict with certificate")
    p.add_argument("weights")
    p.add_argument("point")

    p = sub.add_parser("kn", help="minimize the Kempf-Ness functional")
    p.add_argument("weights")
    p.add_argument("point")
    p.add_argument("--hyperkahler", action="store_true")

    p = sub.add_parser("metric", help="reduced-frame report at a moment-zero point")
    p.add_argument("weights")
    p.add_argument("point")
    p.add_argument("--pairs", default=None)

    p = sub.add_parser("hirzebruch", help="run the ruled-surface verification suite")
    p.add_argument("n", type=int)
    p.add_argument("c0", nargs="?", default="1")
    p.add_argument("c1", nargs="?", default="1")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        mode=args.mode,
        tol=args.tol,
        bound=args.bound,
        seed=args.seed,
        fmt=args.format,
        trace=args.trace,
    )
    try:
        if args.command == "analyze":
            payload = cmd_analyze(cfg, args.weights)
        elif args.command == "classify":
            payload = cmd_classify(cfg, args.weights, args.point)
        elif args.command == "kn":
            payload = cmd_kn(cfg, args.weights, args.point, args.hyperkahler)
        elif args.command == "metric":
            payload = cmd_metric(cfg, args.weights, args.point, args.pairs)
        else:
            payload = cmd_hirzebruch(cfg, args.n, args.c0, args.c1)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (PreconditionError, BoundExceededError, ValueError, OverflowError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    chunk = io.StringIO()

    def write(piece: str) -> None:
        # a stdout write per 64 KiB, not per piece: each would be a write(2)
        # with PYTHONUNBUFFERED=1
        chunk.write(piece)
        if chunk.tell() >= 1 << 16:
            sys.stdout.write(chunk.getvalue())
            chunk.seek(0)
            chunk.truncate()

    try:
        _write(payload, cfg.fmt, write)
        print(chunk.getvalue(), flush=True)
    except BrokenPipeError:
        # on devnull, the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    if payload.get("command") == "hirzebruch" and not payload.get("passed", False):
        return EXIT_ASSERTION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
