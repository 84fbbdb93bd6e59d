"""Command-line verification campaigns with byte-reproducible JSON reports.

Subcommands: verify | spectrum | dirac | eval.  Reports go to stdout as
UTF-8 JSON that opens with schema_version, tool_version and the command that
reproduces it, with a fixed key order and floats rendered with 17 significant
digits; identical flags and seed produce byte-identical output.  Exit codes:
0 pass, 1 verification failure, 2 usage error (malformed or non-finite input).
The tolerances of the verify checks and the size limits of verify, dirac and
spectrum are program constants, not flags: a pass is a pass at the stated
tolerances.

Each input rule is stated once: main checks the integer options against
MINIMUMS and --a for finiteness before any subcommand runs, and every size
limit goes through _check_limit before work starts.  verify's per-sample
stencil budget is campaigns.stencil_values_per_point; an inverse beyond
geometry.INVERSE_CONSISTENCY_TOL raises ConditioningError (exit 1, no report).
"""
from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import shlex
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .campaigns import (
    bracket_residual,
    det_residual,
    field_residual,
    inverse_residual,
    polarization_residuals,
    ricci_residual,
    stencil_values_per_point,
)
from .errors import GenoscError
from .exact import ComplexRational
from .geometry import (
    INVERSE_CONSISTENCY_TOL,
    OscillatorParams,
    PhasePoint,
    metric_at,
    radial_profile,
    sample_points,
)
from .observables import AlgebraElement, evaluate, moment_map
from .quantization import dirac_nonzero, spectrum_of_H

SCHEMA_VERSION = 3

TOLERANCES = {
    "det": 1e-10,
    "inverse": INVERSE_CONSISTENCY_TOL,
    "field": 1e-7,
    "bracket": 1e-7,
    "ricci": 1e-5,
    "polarization": 1e-5,
}

#: The tolerance-gated verify checks: (check name, key of its residual and of
#: its tolerance), in report order.
VERIFY_CHECKS = (
    ("det", "det"),
    ("inverse", "inverse"),
    ("ricci", "ricci"),
    ("hamiltonian_field_closed_form", "field"),
    ("bracket_consistency", "bracket"),
    ("polarization", "polarization"),
)

#: Most complex values one chunk of verify points may hold at once.  The
#: largest array is the nested polarization stencil, stencil_values_per_point
#: values per point; peak RSS grew by about 80 bytes per value from m = 4 to
#: m = 16 (CHANGES.md has the measurements), so this allows m <= 16, with one
#: point per chunk there, and keeps a run under about 0.45 GB.
MAX_STENCIL_VALUES = 5_000_000

#: Most stencil values a verify run evaluates, samples x
#: stencil_values_per_point; checked before any point is drawn.  It allows
#: the default 100 samples at every m verify allows.  At this limit, in one
#: process on a 2-core x86-64 VM with Python 3.11, verify --m 2 --a 1
#: --samples 244140 took 131 s at 328 MB peak RSS, and --m 16 --a 1
#: --samples 117 took 425 s at 211 MB.
MAX_VERIFY_STENCIL_VALUES = 500_000_000

#: Most basis pairs dirac checks: m^4 <= 4096 allows m <= 8.
MAX_DIRAC_PAIRS = 4096

#: Most monomial states a command quantizes on: the degree-l basis of dirac,
#: C(l+m-1, m-1) states, or the bases of degrees 0..lmax of spectrum,
#: C(lmax+m, m) states in all.  Checked before any basis is built, since
#: enumerating a basis takes time and memory in proportion to its size.  At
#: this limit, each in a fresh process on a 2-core x86-64 VM with Python
#: 3.11 (wall time, interpreter start included), dirac --m 2 --l 9999 took
#: 0.22-0.26 s at 34 MB peak RSS and dirac --m 3 --l 139 (9 870 states, 81
#: pairs) 0.24-0.26 s at 36 MB; in one process, spectrum --m 1 --lmax 9999
#: took 0.53 s at 38 MB.  With both dirac limits reached at once, dirac
#: --m 8 --l 8 (6 435 states, 4 096 pairs) took 0.55-0.65 s (once 0.9 s) at
#: 55 MB in a fresh process, of which about 17 MB are its stack of 169 distinct bracket
#: operators and 7 MB its stack of 64 basis operators.
MAX_BASIS_STATES = 10_000

#: Most exponent entries spectrum builds, m C(lmax+m, m): m per state, as
#: many as the basis's exponent table holds; checked before any basis is
#: built.  At this limit, in one process on a 2-core x86-64 VM with Python
#: 3.11, spectrum --m 1400000 --lmax 0 (the costliest shape: most of it
#: builds H's m terms and groups their coefficients by value) took
#: 1.7-2.1 s at 312 MB peak RSS, --m 1182 --lmax 1 0.18 s at 61 MB and
#: --m 139 --lmax 2 0.16 s at 61 MB.
MAX_SPECTRUM_ENTRIES = 1_400_000

#: Least value of each integer option, checked for every subcommand that has it.
MINIMUMS = {"m": 1, "samples": 1, "seed": 0, "l": 0, "lmax": 0}


def _render_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 sig digits."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r} as JSON")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_render_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(report: dict):
    sys.stdout.write(_render_json(report) + "\n")


def _report(command: str, **fields) -> dict:
    """A report: the schema and tool versions and the command, then fields."""
    head = {"schema_version": SCHEMA_VERSION, "tool_version": __version__, "command": command}
    return head | fields


def _verdict(report: dict, checks: list[tuple[str, bool, str]]) -> int:
    """Print the report with its (name, pass, detail) checks and their overall
    pass; exit code 0 if every check passed, else 1."""
    report["checks"] = [{"name": n, "pass": ok, "detail": d} for n, ok, d in checks]
    report["pass"] = all(ok for _, ok, _ in checks)
    _emit(report)
    return 0 if report["pass"] else 1


def _check_limit(count: int, unit: str, limit: int, what: str, parser):
    if count > limit:
        # An option may have as many digits as int() reads, and a count
        # made from it more than str() writes.
        try:
            shown = str(count)
        except ValueError:
            shown = f"at least 10^{sys.get_int_max_str_digits()}"
        parser.error(f"{what} has {shown} {unit}, over the limit of {limit}")


def _a_option(a: float) -> str:
    """--a as command words that parse back to the same float: repr is the
    shortest text that round-trips, and a negative value is joined with '='
    because argparse reads some negative numbers, such as -1e-05, as flags."""
    text = repr(a)
    return f"--a={text}" if text.startswith("-") else f"--a {text}"


def _cmd_verify(args, parser) -> int:
    per_sample = stencil_values_per_point(args.m)
    unit = "stencil values per sample"
    _check_limit(per_sample, unit, MAX_STENCIL_VALUES, f"--m {args.m}", parser)
    what = f"--m {args.m} --samples {args.samples}"
    total = args.samples * per_sample
    _check_limit(total, "stencil values", MAX_VERIFY_STENCIL_VALUES, what, parser)
    params = OscillatorParams(m=args.m, a=args.a)
    # Points have r ~ max(1, |a|): a large |a| or m overflows a^m, r^m or a
    # product inside the metric, which raises under errstate.
    try:
        with np.errstate(over="raise"):
            points = sample_points(params, args.samples, args.seed)
            # Each campaign runs once per chunk of points; a residual is the
            # max over the chunks.
            size = max(1, MAX_STENCIL_VALUES // per_sample)
            chunks = [points[i : i + size] for i in range(0, len(points), size)]
            worst = lambda campaign: max(campaign(params, chunk) for chunk in chunks)
            residuals = {
                "det": worst(det_residual),
                "inverse": worst(inverse_residual),
                "ricci": worst(ricci_residual),
                "field": worst(field_residual),
                "bracket": worst(bracket_residual),
            }
            pairs = [polarization_residuals(params, c, poly_seed=args.seed) for c in chunks]
            pol, control = (max(column) for column in zip(*pairs))
    except (OverflowError, FloatingPointError):
        parser.error(
            f"--a {args.a:g} is too large at --m {args.m}: r^m or the metric overflows a float"
        )
    residuals["polarization"] = pol
    residuals["polarization_negative_control"] = control

    checks = []
    for name, key in VERIFY_CHECKS:
        res, tol = residuals[key], TOLERANCES[key]
        checks.append((name, res <= tol, f"max residual {res:.3e}, tolerance {tol:.3e}"))
    detail = f"expected-fail control (zbar^1)^2: residual {control:.3e}, required >= 1"
    checks.append(("polarization_negative_control", control >= 1.0, detail))
    report = _report(
        f"verify --m {args.m} {_a_option(args.a)} --samples {args.samples} --seed {args.seed}",
        params={"m": args.m, "a": args.a},
        seed=args.seed,
        n_samples=args.samples,
        tolerances=TOLERANCES,
        residuals=residuals,
    )
    return _verdict(report, checks)


def _cmd_spectrum(args, parser) -> int:
    what = f"--m {args.m} --lmax {args.lmax}"
    # math.comb's time grows with k = min(m, lmax) (35 s at k = 10^6), and
    # C(lmax+m, m) >= C(2k, k) >= 2^k: such inputs are refused uncounted.
    if min(args.m, args.lmax) >= MAX_BASIS_STATES.bit_length():
        parser.error(f"{what} has over {MAX_BASIS_STATES} basis states")
    states = math.comb(args.lmax + args.m, args.m)
    _check_limit(states, "basis states", MAX_BASIS_STATES, what, parser)
    _check_limit(args.m * states, "exponent entries", MAX_SPECTRUM_ENTRIES, what, parser)
    rows = [
        {
            "l": line.l,
            "eigenvalue": line.eigenvalue,
            "eigenvalue_float": float(line.eigenvalue),
            "multiplicity": line.multiplicity,
        }
        for line in (spectrum_of_H(args.m, l) for l in range(args.lmax + 1))
    ]
    _emit(_report(f"spectrum {what}", m=args.m, lmax=args.lmax, eigenvalue_unit="hbar", rows=rows))
    return 0


def _cmd_dirac(args, parser) -> int:
    n_pairs = args.m**4
    _check_limit(n_pairs, "basis pairs", MAX_DIRAC_PAIRS, f"--m {args.m}", parser)
    states = math.comb(args.l + args.m - 1, args.m - 1)
    _check_limit(states, "basis states", MAX_BASIS_STATES, f"--m {args.m} --l {args.l}", parser)
    nonzero = dirac_nonzero(args.m, args.l)
    report = _report(
        f"dirac --m {args.m} --l {args.l}",
        m=args.m,
        l=args.l,
        pairs_checked=n_pairs,
        nonzero_residuals=nonzero,
    )
    detail = f"{n_pairs} pairs checked, {nonzero} nonzero residuals"
    return _verdict(report, [("dirac_condition_exact", nonzero == 0, detail)])


def _rational(x) -> ComplexRational:
    # A two-character string or two-key object would unpack as a pair too.
    if type(x) is not list or len(x) != 2:
        raise ValueError(f"a coefficient must be an [re, im] pair, got {type(x).__name__}")
    re, im = x
    return ComplexRational(Fraction(str(re)), Fraction(str(im)))


def _parse_element(args, parser) -> AlgebraElement:
    """The --element JSON as an AlgebraElement over --m; a malformed one, or
    one whose coeff is not --m x --m, is a usage error."""
    try:
        spec = json.loads(args.element)
        rows = [[_rational(c) for c in row] for row in spec["coeff"]]
        if len(rows) != args.m or any(len(row) != args.m for row in rows):
            raise ValueError(f"coefficient matrix must be {args.m} x {args.m}")
        terms = {(a, b): c for a, row in enumerate(rows) for b, c in enumerate(row)}
        return AlgebraElement(args.m, terms, _rational(spec.get("constant", [0, 0])))
    except (
        ValueError, TypeError, KeyError, AttributeError, ZeroDivisionError, RecursionError
    ) as exc:
        parser.error(f"malformed --element: {type(exc).__name__}: {exc}")


def _pairs(values) -> list:
    """Complex values as [re, im] pairs of floats, nested as the values are."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _cmd_eval(args, parser) -> int:
    params = OscillatorParams(m=args.m, a=args.a)
    element = None if args.metric else _parse_element(args, parser)
    # The point is --m pairs of JSON numbers; a bool is not one, though
    # complex() would take it.
    try:
        pairs = json.load(sys.stdin)
        if not (
            type(pairs) is list
            and len(pairs) == args.m
            and all(type(p) is list and len(p) == 2 for p in pairs)
            and all(type(x) in (int, float) for p in pairs for x in p)
        ):
            raise ValueError(f"need {args.m} pairs of JSON numbers, one per coordinate")
        point = PhasePoint([complex(re, im) for re, im in pairs])
    except (ValueError, OverflowError, RecursionError) as exc:
        parser.error(f"expected a JSON array of [re, im] pairs on stdin: {exc}")
    if not (all(map(cmath.isfinite, point.z)) and math.isfinite(point.r)):
        parser.error(f"the point's coordinates and r must be finite, got r = {point.r}")
    mode = "--metric" if args.metric else f"--element {shlex.quote(args.element)}"
    report = _report(
        f"eval --m {args.m} {_a_option(args.a)} {mode}",
        point=_pairs(point.z),
        r=point.r,
    )
    # numpy overflow raises here as in verify, rather than turning values into
    # inf.  At a point so near 0 that r^2 s^(m-1) underflows, u'' is x/0 for
    # a^m != 0 (radial_profile gives 0 at a^m = 0): metric_at then raises
    # ConditioningError, and moment_map never reads u''.
    try:
        with np.errstate(over="raise", divide="ignore", invalid="ignore"):
            if args.metric:
                md = metric_at(params, point)
                prof = radial_profile(params, point.r)
                report["profile"] = dataclasses.asdict(prof)
                report["g"] = _pairs(md.g)
                report["g_inv"] = _pairs(md.g_inv)
                report["det_g"] = md.det_g
            else:
                N = moment_map(params, point)
                try:
                    value = evaluate(element, N)
                except (OverflowError, FloatingPointError):
                    parser.error(f"the --element value at r = {point.r:g} overflows a float")
                report["value"] = _pairs(value)
    except GenoscError as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        _emit(report)
        return 1
    except (OverflowError, FloatingPointError):
        parser.error(
            f"r = {point.r:g} or --a {args.a:g} is too large: r^m or a^m overflows a float"
        )
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genosc",
        description="Verification workbench for the Ricci-flat generalized oscillator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = sub.add_parser("verify", help="run the sampled geometric/algebraic checks")
    p_verify.add_argument("--m", type=int, required=True, help="complex dimension")
    p_verify.add_argument("--a", type=float, default=0.0, help="deformation parameter")
    p_verify.add_argument("--samples", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_spec = sub.add_parser("spectrum", help="eigenvalues of Q(H) per degree")
    p_spec.add_argument("--m", type=int, required=True)
    p_spec.add_argument("--lmax", type=int, required=True)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_dirac = sub.add_parser("dirac", help="exhaustive exact Dirac-condition check")
    p_dirac.add_argument("--m", type=int, required=True)
    p_dirac.add_argument("--l", type=int, required=True)
    p_dirac.set_defaults(func=_cmd_dirac)

    p_eval = sub.add_parser(
        "eval", help="evaluate the metric or an algebra element at a point from stdin"
    )
    p_eval.add_argument("--m", type=int, required=True)
    p_eval.add_argument("--a", type=float, default=0.0)
    mode = p_eval.add_mutually_exclusive_group(required=True)
    mode.add_argument("--metric", action="store_true", help="emit metric data")
    mode.add_argument(
        "--element",
        default=None,
        help='JSON {"coeff": [[[re, im], ...], ...], "constant": [re, im]} with rational entries',
    )
    p_eval.set_defaults(func=_cmd_eval)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    for name, least in MINIMUMS.items():
        if getattr(args, name, least) < least:
            _PARSER.error(f"--{name} must be >= {least}")
    if not math.isfinite(getattr(args, "a", 0.0)):
        _PARSER.error(f"--a must be finite, got {args.a}")
    try:
        return args.func(args, _PARSER)
    except GenoscError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
