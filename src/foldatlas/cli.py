"""Command-line surface: classify, sweep, simulate, verify.

Single reports are emitted as JSON, grids and trajectories as CSV (header
row, comma separator, '.' decimal).  Exit codes: 0 success, 2 input/parse
error, 3 precondition violation, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum

from .algebra import linspace
from .errors import MalformedDocumentError, PreconditionError, ToolError, VerificationFailure
from .foldfold import (
    _FLOAT_RANGE_MESSAGE,
    _SUBTYPES,
    _fits_float_range,
    InstabilityReason,
    make_parameters,
    return_map_analysis,  # noqa: F401  bound here for perfbench's binding test
    surface_point_report,
)
from .integrator import IntegratorConfig, filippov_trajectory
from .sigma import OVERFLOW_MESSAGE, default_tolerance, tangency_curves
from .system import Box, _require_usable_box, load_system, validate


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _finite(value, what):
    if not math.isfinite(value):
        raise MalformedDocumentError(f"{what} must be finite")
    return value


def _parse_floats(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise MalformedDocumentError(f"{what} needs {n} comma-separated numbers")
    try:
        return tuple(_finite(float(p), what) for p in parts)
    except ValueError as exc:
        raise MalformedDocumentError(f"{what}: {exc}") from exc


def _parse_range(text, what):
    parts = text.split(":")
    if len(parts) != 3:
        raise MalformedDocumentError(f"{what} must be min:max:count")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise MalformedDocumentError(f"{what}: {exc}") from exc
    if n < 2 or not lo < hi or not math.isfinite(hi - lo):
        raise MalformedDocumentError(f"{what}: need min < max, a finite max - min and count >= 2")
    return lo, hi, n


def _read_system(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedDocumentError(f"cannot read {path}: {exc}") from exc
    return load_system(text)


def _write_out(text, out):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise MalformedDocumentError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args):
    system = _read_system(args.system)
    point = _parse_floats(args.point, 3, "--point")
    tol = _finite(args.tol, "--tol") if args.tol is not None else default_tolerance(system)
    if tol < 0.0:
        raise MalformedDocumentError("--tol must be >= 0")
    result = surface_point_report(system, point, tol)
    cls = result.classification
    report = {
        "system": system.name,
        "point": list(point),
        "tolerance": tol,
        "classification": {
            "kind": cls.kind.value,
            "witness": {"Xf": cls.witness[0], "Yf": cls.witness[1]},
        },
        "validation_warnings": validate(system),
    }
    if result.tangency is not None:
        report["tangency"] = _jsonable(result.tangency)
    ff = result.foldfold
    if ff is None:
        report["verdict"] = _jsonable(result.verdict)
    else:
        return_map = _jsonable(ff.analysis)  # None, or rows under the key "matrix"
        return_map = return_map and {"matrix": return_map.pop("rows"), **return_map}
        report["foldfold"] = {
            "normal_parameters": _jsonable(ff.params),
            "region": ff.region.value,
            "claim": ff.region.claim._value_,
            "return_map": return_map,
            "verdict": _jsonable(ff.verdict),
            "moduli": _jsonable(ff.moduli),
        }
        if ff.moduli is not None:
            report["foldfold"]["obstruction"] = InstabilityReason.MODULI_FOLIATION.value
    if args.curves:
        curves = tangency_curves(system)
        report["tangency_curves"] = {
            side: [
                {"points": c.points, "closed": c.closed, "complete": c.complete}
                for c in lst
            ]
            for side, lst in curves.items()
        }
    _write_out(json.dumps(report, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep


@dataclass
class SweepSpec:
    alpha: tuple  # (lo, hi, n)
    beta: tuple
    gamma: float
    delta: float
    out: str | None = None

    def __post_init__(self):
        if self.alpha[2] < 2 or self.beta[2] < 2:
            raise MalformedDocumentError("sweep resolution must be >= 2 per axis")
        for what, (lo, hi, _) in (("alpha", self.alpha), ("beta", self.beta)):
            if not math.isfinite(hi - lo):  # a finite width gives finite grid points
                raise MalformedDocumentError(f"{what} range: max - min must be finite")
        if not math.isfinite(self.gamma) or self.gamma == 0.0:
            raise MalformedDocumentError("gamma must be finite and nonzero")
        a_max, b_max = (max(abs(lo), abs(hi)) for lo, hi, _ in (self.alpha, self.beta))
        if not _fits_float_range(a_max, b_max, self.gamma):
            raise MalformedDocumentError(_FLOAT_RANGE_MESSAGE)
        if self.delta not in (-1.0, 1.0):
            raise MalformedDocumentError("delta must be -1 or 1")


def run_sweep(spec):
    """The atlas CSV; each alpha and each beta is formatted once, gamma and
    delta are validated once, and every row calls their subtype's core on
    the floats (alpha, beta, gamma).  A row is one f-string around the texts
    ``_csv`` that each region and verdict formats once, and the fixed-point
    class and tau of the analysis set exactly at invisible two-folds."""
    alphas = linspace(*spec.alpha)
    betas = linspace(*spec.beta)
    gamma, delta = spec.gamma, spec.delta
    params = make_parameters(0.0, 0.0, gamma, delta)
    core, g = _SUBTYPES[params.subtype][1], params.gamma
    beta_cols = [(b, f",{b!r},{gamma!r},{int(delta)},") for b in betas]
    rows = ["alpha,beta,gamma,delta,region,claim,fixed_point_class,verdict,reason,tau"]
    for a in alphas:
        a_text = repr(a)
        for b, cols in beta_cols:
            region, verdict, analysis = core(a, b, g)
            fp_class = tau = ""
            if analysis is not None:  # set exactly for invisible two-folds
                fp_class = analysis.fixed_point_class._value_
                if analysis.tau is not None:  # set exactly for unit-circle eigenvalues
                    tau = repr(analysis.tau)
            rows.append(f"{a_text}{cols}{region._csv}{fp_class}{verdict._csv}{tau}")
    return "\n".join(rows) + "\n"


def cmd_sweep(args):
    spec = SweepSpec(
        alpha=_parse_range(args.alpha, "--alpha"),
        beta=_parse_range(args.beta, "--beta"),
        gamma=args.gamma,
        delta=args.delta,
        out=args.out,
    )
    _write_out(run_sweep(spec), spec.out)
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    system = _read_system(args.system)
    p0 = _parse_floats(args.p0, 3, "--p0")
    horizon = _finite(args.T, "--T")
    cfg = None  # the trajectory stops at system.box
    if args.box:
        box = Box.from_sequence(_parse_floats(args.box, 6, "--box"))
        _require_usable_box(box)
        cfg = IntegratorConfig(box=box)
    traj = filippov_trajectory(system, p0, horizon, cfg)
    lines = ["segment,mode,terminal,t,x,y,z"]
    for i, seg in enumerate(traj.segments):
        for t, p in zip(seg.times.tolist(), seg.points.tolist()):
            lines.append(
                f"{i},{seg.mode.value},{seg.terminal.value},"
                f"{t!r},{p[0]!r},{p[1]!r},{p[2]!r}"
            )
    lines.append(f"# status={traj.status} total_time={traj.total_time!r}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    from . import checks

    scale = _finite(args.scale, "--scale")
    if not scale > 0.0:
        raise MalformedDocumentError("--scale must be > 0")
    if not math.isfinite(scale * checks.MAX_BASE_COUNT):
        raise MalformedDocumentError(f"--scale {scale:g} gives non-finite sample counts")
    if args.seed < 0:
        raise MalformedDocumentError("--seed must be >= 0")
    if args.suite == "none" and not args.system:
        print("no checks selected")
        return 0
    if args.system:
        system = _read_system(args.system)
        point = _parse_floats(args.point, 3, "--point") if args.point else (0.0, 0.0, 0.0)
        results = checks.check_system(system, point, args.seed)
        if args.suite not in ("all", "none"):
            results += checks.run_suites([args.suite], scale=args.scale, seed=args.seed)
    else:
        names = list(checks.SUITES) if args.suite == "all" else [args.suite]
        results = checks.run_suites(names, scale=args.scale, seed=args.seed)
    lines = [r.row() for r in results]
    csv_lines = ["name,passed,residual,threshold,detail"]
    for r in results:
        csv_lines.append(
            f"{r.name},{int(r.passed)},{float(r.residual)!r},{float(r.threshold)!r},"
            f"\"{r.detail}\""
        )
    print("\n".join(lines))
    if args.out:
        _write_out("\n".join(csv_lines) + "\n", args.out)
    if not all(r.passed for r in results):
        raise VerificationFailure("one or more checks failed")
    return 0


# ---------------------------------------------------------------------------


class _SuiteChoices:
    """``verify --suite`` values, read from ``checks.SUITES`` when first asked
    for (``in`` iterates), so that only ``verify`` imports ``checks``."""
    def __iter__(self):
        from .checks import SUITES
        return iter(("all", "none", *SUITES))


@functools.cache
def build_parser():
    """The parser of ``main``, built once per process: parsing leaves it as
    it was, and it holds the command functions as they were at the build."""
    parser = argparse.ArgumentParser(
        prog="foldatlas",
        description=(
            "Classify switching-surface singularities of 3D piecewise-smooth "
            "vector fields and cross-validate against numeric integration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a surface point of a system")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--point", required=True, help="x,y,z (z must be ~0)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--curves", action="store_true",
                   help="embed sampled tangency curves in the report")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("sweep", help="normal-parameter atlas as CSV")
    p.add_argument("--alpha", required=True, help="min:max:count")
    p.add_argument("--beta", required=True, help="min:max:count")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, default=-1.0, choices=(-1.0, 1.0))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("simulate", help="Filippov trajectory as CSV")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--p0", required=True, help="x,y,z initial point")
    p.add_argument("--T", type=float, default=10.0, help="horizon (<0 reverses time)")
    p.add_argument("--box", default=None, help="xmin,xmax,ymin,ymax,zmin,zmax")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="analytic-vs-numeric verification suite")
    p.add_argument("system", nargs="?", default=None,
                   help="optional system JSON file to check at --point")
    p.add_argument("--point", default=None, help="x,y,z (default origin)")
    p.add_argument("--suite", default="all", choices=_SuiteChoices(), metavar="SUITE",
                   help="one of %(choices)s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="sample-count multiplier (1.0 = CLI defaults)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


_VALUE_OPTIONS = {
    "--point", "--p0", "--alpha", "--beta", "--gamma", "--delta", "--T",
    "--box", "--tol", "--seed", "--scale", "--suite", "--out",
}


def _merge_negative_values(argv):
    """Join '--opt value' pairs so that values like '-3:3:200' survive
    argparse's option detection."""
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_OPTIONS and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        return args.fn(args)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OverflowError:
        # An interpreted power (Poly3.eval) past the float range: the input
        # lies where the fields cannot be evaluated, a precondition violation.
        print(f"error: {OVERFLOW_MESSAGE}", file=sys.stderr)
        return PreconditionError.exit_code


if __name__ == "__main__":
    sys.exit(main())
