"""Command-line front end: evaluate series, verify identities, solve alphabets.

Exit codes: 0 when everything succeeded (and, for verify, every record
passed), 1 for failed verifications and domain/resource errors, 2 for
usage errors (unknown series or identity, malformed arguments or
configuration values).

Configuration precedence is flags > environment variables > config file >
defaults.  The environment understands AUTOSERIES_PRECISION_BITS and
AUTOSERIES_MAX_TERMS; AUTOSERIES_CONFIG (or --config) points at a JSON
file with any of the keys eps, precision_bits, max_terms, format.
The effective snapshot is embedded in every report.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import os
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from functools import cache
from pathlib import Path

from mpmath.libmp import to_str

from . import __version__
from .errors import AutoseriesError
from .evaluator import (
    COMPOSITE9_SERIES,
    DELTA_SERIES,
    F_SERIES,
    G_SERIES,
    GAMMA_SERIES,
    ODD_PLUS_MINUS_SERIES,
    PHI_SERIES,
    SeriesSpec,
)
from .identities import (
    IdentityKind,
    Route,
    VerificationRecord,
    accelerated_route,
    builtin_registry,
    eval_series_spec,
    get_identity,
    route_serves,
    verify,
)
from .precision import Precision
from .report import ReportDocument, RunConfig, record_line
from .sequences import CoefficientSequence
from .solver import AlphabetCase, mint_identity, solve_case


class UsageError(Exception):
    """Bad invocation: unknown name or malformed value (exit code 2)."""


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def parse_real(text: str) -> float:
    """Parse a real number: 'p/q' exactly, decimals, or +-*/ expressions
    over rationals and the literal token sqrt2 (for irrational alphabets)."""
    text = text.strip()
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        pass
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise UsageError(f"cannot parse number {text!r}") from exc

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "sqrt2":
            return math.sqrt(2.0)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = walk(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            a, b = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if b == 0.0:
                raise UsageError(f"division by zero in {text!r}")
            return a / b
        raise UsageError(f"unsupported expression in number {text!r}")

    return walk(tree)


def _parse_s_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --s list {text!r}") from exc


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


_FORMATS = ("json", "csv", "text")


class _OutOfRange(argparse.ArgumentTypeError):
    """A setting that parses but lies where it may not; argparse prints
    the message as it is."""


# argparse names a type's converter in its messages ("invalid tolerance
# value"), hence the plain names of the two below
def tolerance(value) -> float:
    """A tolerance as a float; a finite nonzero number past the float
    range, which would read as 0 or infinity, is refused."""
    eps = float(value)
    if eps == 0.0 or math.isinf(eps):
        exact = Decimal(str(value).strip())
        if exact.is_finite() and exact != 0:
            raise _OutOfRange(
                f"eps={value} lies outside the float range "
                f"[{math.ulp(0.0):g}, {sys.float_info.max:g}], where a tolerance must lie"
            )
    return eps


def term_count(value) -> int:
    """A term cap: an integer of at least 1."""
    n = int(value)
    if n < 1:
        raise _OutOfRange(f"max_terms must be at least 1, got {n}")
    return n


def _setting(convert, value, name: str):
    """``convert(value)``, or a usage error naming the setting."""
    try:
        return convert(value)
    except _OutOfRange as exc:
        raise UsageError(f"{name}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed {name}: {value!r}") from exc


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    path = args.config or os.environ.get("AUTOSERIES_CONFIG")
    if path:
        try:
            # decimals stay exact, so an eps past the float range is seen
            data = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=Decimal)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        for key, convert in (("eps", tolerance), ("precision_bits", int), ("max_terms", term_count)):
            if data.get(key) is not None:
                setattr(cfg, key, _setting(convert, data[key], f"config key {key} in {path}"))
        if data.get("format") is not None:
            if data["format"] not in _FORMATS:
                raise UsageError(f"malformed config key format in {path}: {data['format']!r}")
            cfg.out_format = data["format"]
    for key, convert in (("precision_bits", int), ("max_terms", term_count)):
        var = f"AUTOSERIES_{key.upper()}"
        if os.environ.get(var):
            setattr(cfg, key, _setting(convert, os.environ[var], var))
    for key in ("eps", "precision_bits", "max_terms", "out_format"):
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg


def _precision(cfg: RunConfig, eps: float) -> Precision:
    if cfg.precision_bits == 53:
        return Precision.for_eps(eps)
    return Precision(cfg.precision_bits, eps)


# ---------------------------------------------------------------------------
# eval subcommand
# ---------------------------------------------------------------------------

#: name -> series; digitsum:B and affine names are parsed.  No name picks
#: a route: ``eval NAME`` gives what ``eval_series_spec`` does on AUTO.
_CATALOG = {"f": F_SERIES, "g": G_SERIES, "phi": PHI_SERIES, "gamma": GAMMA_SERIES,
            "delta": DELTA_SERIES, "odd-epsilon": ODD_PLUS_MINUS_SERIES,
            "composite9": COMPOSITE9_SERIES}
_EVAL_CATALOG = ", ".join([*_CATALOG, "digitsum:B", "affine:A:B[:shifted]"])


def _catalog_series(name: str) -> SeriesSpec:
    """Resolve a catalog name to its series."""
    if name in _CATALOG:
        return _CATALOG[name]
    if name.startswith("digitsum:"):
        try:
            base = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad digit-sum base in {name!r}") from exc
        if base < 2:
            raise UsageError(f"digit-sum base must be >= 2, got {base}")
        return SeriesSpec(CoefficientSequence.digit_sum(base))
    if name.startswith("affine:"):
        parts = name.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "shifted"):
            raise UsageError(f"affine series syntax is affine:A:B[:shifted], got {name!r}")
        low, high = parse_real(parts[1]), parse_real(parts[2])
        # the ":shifted" suffix reads the alphabet at n - 1
        return SeriesSpec(CoefficientSequence.affine(low, high, len(parts) - 3))
    raise UsageError(f"unknown series {name!r}; catalog: {_EVAL_CATALOG}")


def _method_route(name: str, spec: SeriesSpec, method: str) -> Route:
    """The route ``--method`` pins for ``spec``, which ``name`` names; one
    that does not serve it (``route_serves``) is a usage error."""
    if method == "functional":
        route = accelerated_route(spec)
    else:
        route = Route.ODD_SPLIT if method == "odd" else Route(method)
    if not route_serves(route, spec):
        raise UsageError(f"method {method!r} does not apply to {name}")
    return route


def _value_text(value, bound: float) -> str:
    """A float's repr; an mpf (the mpmath path) in enough significant
    digits that its decimal rounding stays below bound/1000.  (A zero
    bound only comes with the all-zero series, whose value is 0.)"""
    if isinstance(value, float):
        return repr(value)
    digits = 17
    if bound > 0.0:
        # two logs, not one of the ratio, which overflows for a bound
        # below the normal float range
        scale = math.log10(max(abs(float(value)), bound)) - math.log10(bound)
        digits = max(digits, 4 + math.ceil(scale))
    return to_str(value._mpf_, digits)


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    eps = args.eps_pos if args.eps_pos is not None else (cfg.eps or 1e-8)
    name = args.series.strip().lower()
    spec = _catalog_series(name)
    route = _method_route(name, spec, args.method)
    result = eval_series_spec(spec, args.s, eps, route, _precision(cfg, eps), cfg.max_terms)
    payload = {
        "series": name,
        "s": repr(float(args.s)),
        "eps": repr(float(eps)),
        "value": _value_text(result.value, result.abs_error_bound),
        "abs_error_bound": repr(float(result.abs_error_bound)),
        "terms_used": result.terms_used,
        "method": result.method.value,
    }
    if cfg.out_format == "json":
        rendered = json.dumps(payload, indent=2)
    elif cfg.out_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows((payload, payload.values()))
        rendered = buf.getvalue().rstrip("\n")
    else:
        rendered = "\n".join(
            (
                f"series : {name}   s = {args.s:g}   eps = {eps:g}",
                f"value  = {payload['value']}",
                f"bound  = {result.abs_error_bound:.6e}",
                f"terms  = {result.terms_used}",
                f"method = {result.method.value}",
            )
        )
    print(rendered)
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.all:
        idents = builtin_registry()
    elif args.ids:
        try:
            idents = [get_identity(i) for i in args.ids]
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from exc
    else:
        raise UsageError("verify needs identity ids or --all")

    s_override = _parse_s_list(args.s) if args.s else None
    doc = ReportDocument(config=cfg, version=__version__)
    for ident in idents:
        eps = cfg.eps if cfg.eps is not None else ident.default_eps
        prec = _precision(cfg, eps)
        if ident.kind is IdentityKind.DIRICHLET:
            # --s moves only the identities valid for every s > 1
            free = s_override and ident.valid_s is None
            s_values = sorted(s_override if free else ident.default_s)
        else:
            s_values = [None]
        for s in s_values:
            # a refused check is a record too: the run goes on to the rest
            t0 = time.perf_counter()
            try:
                rec = verify(ident, s, eps, prec, cfg.max_terms)
            except AutoseriesError as exc:
                rec = VerificationRecord.refused(
                    ident.identity_id, s, str(exc), time.perf_counter() - t0
                )
            doc.records.append(rec)
            print(record_line(rec))
    if args.out:
        Path(args.out).write_text(doc.render(), encoding="utf-8")
        print(f"report written to {args.out}")
    print(doc.summary_line())
    return 0 if doc.all_passed else 1


# ---------------------------------------------------------------------------
# solve subcommand
# ---------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    try:
        case = AlphabetCase(args.case.lower())
    except ValueError as exc:
        raise UsageError(
            f"unknown case {args.case!r}; choose zero, pows or powsminus2"
        ) from exc
    k = parse_real(args.k)
    l = parse_real(args.l)
    sol = solve_case(case, k, l)
    print(sol.describe())
    exit_code = 0
    if args.mint or args.verify_at_solution:
        ident = mint_identity(sol)
        print(f"minted : {ident.identity_id}")
        print(f"         {ident.description}")
        if args.verify_at_solution:
            eps = cfg.eps if cfg.eps is not None else 1e-6
            rec = verify(ident, sol.s, eps, _precision(cfg, eps), cfg.max_terms)
            status = "PASS" if rec.passed else "FAIL"
            print(
                f"[{status}] at s={sol.s:.12g}: residual={rec.residual:.3e} "
                f"bounds={rec.lhs_bound + rec.rhs_bound:.3e} terms={rec.terms_used}"
            )
            if not rec.passed:
                exit_code = 1
    return exit_code


# ---------------------------------------------------------------------------
# list subcommand
# ---------------------------------------------------------------------------


def _cmd_list(_args: argparse.Namespace) -> int:
    for ident in builtin_registry():
        print(
            f"{ident.identity_id:<22s} [{ident.domain:<9s}] eps<={ident.default_eps:g}  "
            f"{ident.description}"
        )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps", type=tolerance, default=None, help="absolute tolerance")
    parser.add_argument("--precision-bits", type=int, default=None, dest="precision_bits")
    parser.add_argument("--max-terms", type=term_count, default=None, dest="max_terms")
    parser.add_argument(
        "--format", choices=_FORMATS, default=None, dest="out_format"
    )
    parser.add_argument("--config", default=None, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autoseries",
        description="Dirichlet series with digit-parity coefficients: certified "
        "evaluation, identity verification, alphabet solving.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help=f"evaluate a series ({_EVAL_CATALOG})")
    p_eval.add_argument("series")
    p_eval.add_argument("s", type=float)
    p_eval.add_argument("eps_pos", type=tolerance, nargs="?", default=None, metavar="eps")
    p_eval.add_argument(
        "--method", choices=("auto", "naive", "odd", "functional"), default="auto"
    )
    p_eval.add_argument("--out", default=None, help="also write the result here")
    _add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="verify identities and write a report")
    p_verify.add_argument("ids", nargs="*", help="identity ids (see `list`)")
    p_verify.add_argument("--all", action="store_true", help="verify the whole registry")
    p_verify.add_argument(
        "--s",
        default=None,
        help="comma-separated exponents for the identities valid for every s > 1; "
        "an identity valid at one s runs at that s",
    )
    p_verify.add_argument("--out", default=None, help="write the report here")
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_solve = sub.add_parser("solve", help="solve an alphabet case for s")
    # argparse takes only -N and -N.N for negative numbers; alphabet values
    # such as -2/3, -.5, -(1+sqrt2) or -sqrt2 are positionals too
    p_solve._negative_number_matcher = re.compile(r"^-([\d.(]|sqrt2)")
    p_solve.add_argument("case", help="zero | pows | powsminus2")
    p_solve.add_argument("k")
    p_solve.add_argument("l")
    p_solve.add_argument("--mint", action="store_true", help="mint the identity")
    p_solve.add_argument(
        "--verify-at-solution", action="store_true", dest="verify_at_solution"
    )
    _add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_list = sub.add_parser("list", help="print the identity registry")
    p_list.set_defaults(func=_cmd_list)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses: building it costs about 15
    times what one parse does, and parsing leaves no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except AutoseriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
