"""Analytic-vs-numeric verification suites.

Each check pits an independent route against the implementation: numeric
flights against closed-form involutions, random draws against sign tables,
sweeps against analytic region predicates.  The closed-form route
(``foldfold``) never integrates; every numeric loop that tests it, the
diabolo seed iteration included, lives here.  A check takes its sample
sizes and seed without defaults: the acceptance sizes are written only in
``tests/test_acceptance.py``, which pins them, and the reduced sizes of the
CLI ``verify`` subcommand only in ``SUITES``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationFailure, PreconditionError
from .foldfold import (
    EigvecLocation,
    FixedPointClass,
    demelo_palis,
    foldfold_sliding_linearization,
    make_parameters,
    parabolic_transversality,
    report_from_params,
    return_map_analysis,
    sliding_region_class,
    surface_point_report,
)
from .integrator import (
    FlightStatus,
    Mode,
    _sliding_kernel,
    fold_map_numeric,
    jacobian_numeric,
    return_map_numeric,
    filippov_trajectory,
)
from .sigma import FoldFoldSubtype, SigmaKind, classify_point
from .sliding import SlidingRegionTag, normalized_sliding_field
from .algebra import Poly3, VectorField3
from .system import DEFAULT_BOX, Box, PiecewiseSystem, build_normal_form


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float
    detail: str = ""

    def __post_init__(self):  # a non-finite residual measures nothing
        if not math.isfinite(self.residual):
            self.passed = False
            self.detail = "non-finite residual" + (f"; {self.detail}" if self.detail else "")

    def row(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: residual {self.residual:.3e} "
            f"(threshold {self.threshold:.3e}) {self.detail}"
        )


# Every bound and probe setting that has one value; tests/test_acceptance.py
# pins them (check_system's in tests/test_checks.py).  _DRAW_MARGIN keeps
# draws of (a, b, g) off the boundary they are drawn against:
# a*b*(a*b - g) = 0 for saddles, a*b = g for sliding regions.
_DRAW_MARGIN = 1e-6
_JACOBIAN_STEP = 1e-3  # central-difference step (criterion 1, check_system)
_DET_TOL = 1e-12  # criterion 1: |det - 1| of the closed-form matrix
_ENTRY_TOL = 1e-4  # criterion 1: numeric minus closed form, per entry
_MIN_MATCHED_FRACTION = 0.99  # criterion 1: grid points with every entry within
_IMAGE_TOL = 1e-7  # criterion 4: X-fold image against (x - 2*a*y, -y)
_DOUBLE_TOL = 1e-6  # criterion 4: second X-fold image against the start
_ATLAS_GAMMA = 1.0  # criterion 5: gamma of the return-map atlas
_PARABOLIC_RADIUS = 1e-3  # criterion 7: distance of the samples from the two-fold
_PARABOLIC_REL_TOL = 1e-5  # criterion 7: relative error of both coefficients
_RATIO_TOL = 1e-12  # criterion 9: |ratio + 1| of the saddle moduli
_BOUNDARY_MARGIN = 1e-4  # criterion 10: draws clear every decision boundary by this
_RESCALING_FACTORS = (0.1, 0.5, 2.0, 10.0)  # criterion 10: e of (e a, e b, e^2 g)
# Criterion 11: |z| where a flow enters sliding, the sliding field's relative
# error, max(Xf, -Yf) on sliding segments, and the zero band of Xf and Yf
# where a sliding segment exits.
_SLIDING_TOL = 1e-10
# check_system: |det - 1| and the trace error of its numeric return map.
_SYSTEM_DET_TOL = 1e-6
_SYSTEM_TRACE_TOL = 1e-3


def _worst(*values):
    """Largest residual of ``values``; NaN if any is NaN, which ``max`` drops."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _count_row(name, count, detail):
    """A row that passes when none of ``count`` cases went wrong."""
    return CheckResult(name, count == 0, float(count), 0.0, detail)


@dataclass
class _Tally:
    """Numeric maps and residuals of some rows.  ``run`` counts each failed
    map in ``failed`` by :class:`FlightStatus` (a caller that needs it counts
    a non-finite image in ``nonfinite``); ``fold`` keeps each row's worst
    residual by ``_worst``'s NaN rule, and its number of folds."""

    failed: Counter = field(default_factory=Counter)
    nonfinite: int = 0
    worst: dict = field(default_factory=dict)
    folds: Counter = field(default_factory=Counter)

    def run(self, numeric_map, *args):
        """``numeric_map(*args)``, or None after a flight of it failed."""
        try:
            return numeric_map(*args)
        except IntegrationFailure as exc:
            self.failed[exc.status] += 1
            return None

    def fold(self, name, *residuals):
        self.worst[name] = _worst(self.worst.get(name, 0.0), *residuals)
        self.folds[name] += 1

    def failures(self):
        return sum(self.failed.values()) + self.nonfinite

    def annotate(self, detail):
        """``detail``, followed by the failed maps by status if any failed."""
        counts = [f"{s.value} {self.failed[s]}" for s in FlightStatus if self.failed[s]]
        if self.nonfinite:
            counts.append(f"non-finite image {self.nonfinite}")
        suffix = f"(failed flights: {', '.join(counts)})" if counts else ""
        return " ".join(filter(None, (detail, suffix)))

    def row(self, name, bound, detail):
        """The row of ``name``: it passes when no map failed, a residual was
        folded and the worst is within ``bound``."""
        worst = self.worst.get(name, 0.0)
        passed = self.failures() == 0 and self.folds[name] > 0 and worst <= bound
        return CheckResult(name, passed, worst, bound, self.annotate(detail))


# ---------------------------------------------------------------------------
# Return-map formula vs numeric Jacobian


def check_return_map_grid(n_alpha, n_beta, gammas):
    """Closed-form return-map matrix: det == 1, and the central-difference
    Jacobian of the integrated return map matches it entrywise."""
    alphas = np.linspace(-3.0, 3.0, n_alpha)
    betas = np.linspace(-3.0, 3.0, n_beta)
    closed_form = _Tally()
    flights = _Tally()  # folds each entry diff, then the unmatched share
    matched = 0
    for g in gammas:
        for a in alphas:
            for b in betas:
                params = make_parameters(a, b, g, -1.0)
                analysis = return_map_analysis(params)
                closed_form.fold("return-map determinant", abs(analysis.det - 1.0))
                system = build_normal_form(a, b, g, -1.0)
                jac = flights.run(jacobian_numeric, lambda q: return_map_numeric(system, q),
                                  (0.0, 0.0), _JACOBIAN_STEP)
                if jac is None:
                    continue
                diff = float(np.max(np.abs(jac - analysis.matrix)))
                if diff <= _ENTRY_TOL:
                    matched += 1
                flights.fold("entry diff", diff)
    total = n_alpha * n_beta * len(gammas)
    returned = flights.folds["entry diff"]
    flights.fold("return-map numeric Jacobian", 1.0 - (matched / returned if returned else 0.0))
    return [
        closed_form.row("return-map determinant", _DET_TOL, f"{total} grid points"),
        flights.row(
            "return-map numeric Jacobian",
            1.0 - _MIN_MATCHED_FRACTION,
            f"matched {matched}/{returned}, {flights.failures()} grid points with a failed "
            f"flight (worst entry diff {flights.worst.get('entry diff', 0.0):.3e})",
        ),
    ]


# ---------------------------------------------------------------------------
# Saddle dichotomy and eigenvector locations


# Rows of (a, b, g) that criterion 2 draws at a time.
_DRAW_BLOCK = 4096


def check_saddle_dichotomy(n, seed):
    """Hyperbolicity of the return map matches sign(a*b*(a*b - g)) exactly."""
    rng = np.random.default_rng(seed)
    disagreements = 0
    count = 0
    while count < n:
        # A block of rows gives the stream of scalar a, b, g draws bit for
        # bit, and holds no more rows than samples are still wanted.
        rows = min(n - count, _DRAW_BLOCK)
        block = rng.uniform((-3.0, -3.0, 0.2), (3.0, 3.0, 3.0), size=(rows, 3))
        for a, b, g in block.tolist():
            crit = a * b * (a * b - g)
            if abs(crit) <= _DRAW_MARGIN:
                continue
            count += 1
            analysis = return_map_analysis(make_parameters(a, b, g, -1.0))
            is_saddle = analysis.fixed_point_class is FixedPointClass.SADDLE
            if is_saddle != (crit > 0.0):
                disagreements += 1
    return [_count_row("saddle dichotomy", disagreements, f"{count} draws")]


_CELL_EXPECTATION = {
    # (sign alpha, sign beta) -> (contracting location, expanding location)
    (1, 1): (EigvecLocation.IN_SLIDING, EigvecLocation.IN_SLIDING),
    (1, -1): (EigvecLocation.IN_CROSSING, EigvecLocation.IN_SLIDING),
    (-1, 1): (EigvecLocation.IN_SLIDING, EigvecLocation.IN_CROSSING),
    (-1, -1): (EigvecLocation.IN_CROSSING, EigvecLocation.IN_CROSSING),
}


def _draw_saddle_in_cell(rng, sa, sb):
    while True:
        a = sa * rng.uniform(0.05, 3.0)
        b = sb * rng.uniform(0.05, 3.0)
        g = rng.uniform(0.2, 3.0)
        if a * b * (a * b - g) > _DRAW_MARGIN:
            return a, b, g


def check_eigenvector_locations(n_per_cell, seed):
    """Saddle eigenvector placement agrees with the sign-cell table."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    total = 0
    for (sa, sb), expected in _CELL_EXPECTATION.items():
        for _ in range(n_per_cell):
            a, b, g = _draw_saddle_in_cell(rng, sa, sb)
            analysis = return_map_analysis(make_parameters(a, b, g, -1.0))
            total += 1
            got = (analysis.location_contracting, analysis.location_expanding)
            if got != expected:
                mismatches += 1
    return [_count_row("eigenvector location table", mismatches,
                       f"{total} saddle draws over 4 sign cells")]


# ---------------------------------------------------------------------------
# Involution ground truth


def check_involution_ground_truth(n_alpha, n_points, seed):
    """Numeric X-fold map against (x - 2*a*y, -y), and its involutivity."""
    rng = np.random.default_rng(seed)
    flights = _Tally()
    for a in np.linspace(-3.0, 3.0, n_alpha):
        system = build_normal_form(a, -1.0, 1.0, -1.0)
        for _ in range(n_points):
            r = 0.1 * math.sqrt(rng.random())
            th = rng.uniform(0.0, 2.0 * math.pi)
            q = (r * math.cos(th), r * math.sin(th))
            image = flights.run(fold_map_numeric, system, "X", q)
            if image is None:
                continue
            exact = (q[0] - 2.0 * a * q[1], -q[1])
            flights.fold("fold-map ground truth",
                         math.hypot(image[0] - exact[0], image[1] - exact[1]))
            back = flights.run(fold_map_numeric, system, "X", image)
            if back is not None:
                flights.fold("fold-map involutivity", math.hypot(back[0] - q[0], back[1] - q[1]))
    return [
        flights.row("fold-map ground truth", _IMAGE_TOL, ""),
        flights.row("fold-map involutivity", _DOUBLE_TOL, ""),
    ]


# ---------------------------------------------------------------------------
# Sliding spectra per region


def _draw_stable_elliptic(rng, margin=1e-3):
    while True:
        g = rng.uniform(0.2, 3.0)
        a = -rng.uniform(0.05, 3.0)
        b = -rng.uniform(0.05, 3.0)
        if a * b - g > margin:
            return a, b, g


def _draw_re1(rng):
    return *_draw_stable_elliptic(rng, margin=_DRAW_MARGIN), -1.0, SlidingRegionTag.RE1


def _draw_rh1(rng):
    while True:
        g = rng.uniform(-3.0, -0.2)
        a = rng.uniform(0.05, 3.0)
        b = rng.uniform(-3.0, -0.05)
        if a * b - g < -_DRAW_MARGIN:
            return a, b, g, 1.0, SlidingRegionTag.RH1


def _draw_rp1(rng):
    while True:
        g = rng.uniform(-3.0, -0.2)
        a = -rng.uniform(0.05, 3.0)
        b = (g / a) * rng.uniform(1.1, 3.0)
        if abs(b) > 3.0 or a * b - g > -_DRAW_MARGIN:
            continue
        return a, b, g, -1.0, SlidingRegionTag.RP1


# Each region's draw and the sign table of its sliding linearization, as a
# predicate of (det, trace, discriminant): RE1 is a stable node, RH1 its time
# reversal and RP1 a saddle.
_REGION_SPECTRA = (
    (_draw_re1, lambda det, tr, disc: det > 0 and tr < 0 and disc > 0),
    (_draw_rh1, lambda det, tr, disc: det > 0 and tr > 0 and disc > 0),
    (_draw_rp1, lambda det, tr, disc: det < 0),
)


def check_region_spectra(n_per_region, seed):
    """Sign table of the sliding linearization per region."""
    rng = np.random.default_rng(seed)
    violations = 0
    total = 0
    for draw, spectrum in _REGION_SPECTRA:
        for _ in range(n_per_region):
            a, b, g, d, tag = draw(rng)
            params = make_parameters(a, b, g, d)
            total += 1
            if sliding_region_class(params) is not tag:
                violations += 1
                continue
            (m00, m01), (m10, m11) = foldfold_sliding_linearization(params)
            det = m00 * m11 - m01 * m10
            tr = m00 + m11
            if not spectrum(det, tr, tr * tr - 4.0 * det):
                violations += 1
    return [_count_row("region spectra sign table", violations,
                       f"{total} draws over RE1/RH1/RP1")]


# ---------------------------------------------------------------------------
# Rescaling invariance


def _clear_of_boundaries(a, b, g, d):
    """True when (a, b, g, d) lies at least ``_BOUNDARY_MARGIN`` away from
    every decision boundary of the verdicts and region tags."""
    if min(abs(a), abs(b)) < 1e-3:
        return False
    margin = _BOUNDARY_MARGIN
    ab = a * b
    clear = (
        abs(ab - g) > margin
        and abs(ab) > margin
        and abs(a + b) > margin
        and (g > 0 or abs((b - a) + 2.0 * math.sqrt(-g)) > margin)
        and abs(2.0 * a * (a + b) - g) > margin
    )
    if g > 0 and d > 0:
        # visible-invisible: the mirrored triple must clear margins too
        am, bm = -b / math.sqrt(g), a / math.sqrt(g)
        clear = clear and (
            abs(am * bm + 1.0) > margin
            and abs(am + bm) > margin
            and abs((bm - am) + 2.0) > margin
            and abs(2.0 * am * (am + bm) + 1.0) > margin
        )
    return clear


def _draw_any_foldfold(rng):
    """Draw parameters of any subtype, bounded away from decision boundaries."""
    while True:
        d = rng.choice((-1.0, 1.0))
        g = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0)
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        if _clear_of_boundaries(a, b, g, d):
            return make_parameters(a, b, g, d)


def _verdict_signature(verdict):
    reason = None
    if verdict.reason is not None:
        reason = (verdict.reason.kind, verdict.reason.which)
    return (verdict.kind, reason, verdict.class_descriptor)


def _signature(params):
    """Region tag and verdict signature of ``params``."""
    report = report_from_params(params)
    return report.region, _verdict_signature(report.verdict)


def check_rescaling_invariance(n, seed):
    """Verdict and region tag survive (a, b, g) -> (e a, e b, e^2 g)."""
    rng = np.random.default_rng(seed)
    changes = 0
    for _ in range(n):
        params = _draw_any_foldfold(rng)
        base = _signature(params)
        for e in _RESCALING_FACTORS:
            scaled = make_parameters(
                e * params.alpha, e * params.beta, e * e * params.gamma, params.delta
            )
            if _signature(scaled) != base:
                changes += 1
    return [_count_row("rescaling invariance", changes,
                       f"{n} draws x {len(_RESCALING_FACTORS)} factors")]


# ---------------------------------------------------------------------------
# Saddle moduli ratio


def check_demelo_palis(n, seed):
    rng = np.random.default_rng(seed)
    tally = _Tally()
    count = 0
    while count < n:
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        g = rng.uniform(0.2, 3.0)
        if a * b * (a * b - g) <= _DRAW_MARGIN:
            continue
        count += 1
        analysis = return_map_analysis(make_parameters(a, b, g, -1.0))
        tally.fold("saddle moduli ratio = -1", abs(demelo_palis(analysis) + 1.0))
    return [tally.row("saddle moduli ratio = -1", _RATIO_TOL, f"{n} draws")]


# ---------------------------------------------------------------------------
# Diabolo invariance


# Seed iteration: at most this many return-map applications per seed, and a
# landing point counts as stable sliding outside this Lie-derivative band.
_DIABOLO_CAP = 200
_DIABOLO_BAND = 1e-11
# Reversibility probe: distances r along the expanding direction, and the
# bound on the X-fold image's distance to the contracting line over r^2.
_REVERSIBILITY_RADII = (0.0125, 0.025, 0.05)
_REVERSIBILITY_TOL = 1e-3
# Contracting cone: seed distances along the contracting direction (both
# signs), each with a twin at the same distance and sign on the expanding
# direction, and the share of seeds that must make more return maps than
# their twins.
_CONE_RADII = tuple(np.logspace(-6.0, -2.0, 10).tolist())
_CONE_MIN_FRACTION = 0.9


@dataclass
class DiaboloReport(_Tally):
    """Outcomes of iterated seeds.  Each seed ends in one of ``violations``,
    ``escaped``, ``exhausted``, or the tally's ``failed`` (a count per
    :class:`FlightStatus`) or ``nonfinite`` (a flight that returned a
    non-finite image); ``iterations`` holds each seed's number of return
    maps."""

    violations: int = 0
    escaped: int = 0
    exhausted: int = 0
    iterations: list = field(default_factory=list)

    def outcomes(self):
        return self.annotate(
            f"{self.escaped} escaped, {self.failures()} stopped by a failed flight, "
            f"{self.exhausted} reached {_DIABOLO_CAP} iterations; "
            f"at most {max(self.iterations, default=0)} iterations"
        )


def _iterate_seeds(system, seeds, report):
    """Apply the numeric return map to each seed until its image lands in
    stable sliding (a violation), leaves ``DEFAULT_BOX`` (escaped), a flight
    fails or returns a non-finite image, or ``_DIABOLO_CAP`` maps are done
    (exhausted); add the outcomes to ``report``."""
    for current in seeds:
        iterations = 0
        for _ in range(_DIABOLO_CAP):
            current = report.run(return_map_numeric, system, current)
            if current is None:
                break
            if not (math.isfinite(current[0]) and math.isfinite(current[1])):
                report.nonfinite += 1
                break
            iterations += 1
            q = (current[0], current[1], 0.0)
            if not DEFAULT_BOX.contains(q):
                report.escaped += 1
                break
            if classify_point(system, q, _DIABOLO_BAND).kind is SigmaKind.STABLE_SLIDING:
                report.violations += 1
                break
        else:
            report.exhausted += 1
        report.iterations.append(iterations)


def _reversal_residual(system, analysis):
    """Largest distance of the X-fold image of a point at distance r from
    the two-fold along the expanding direction (both signs) to the
    contracting line, over r^2.  The X-fold involution swaps the saddle's
    two eigenlines, so this is second order in r."""
    ux, uy = analysis.v_expanding
    sx, sy = analysis.v_contracting
    worst = 0.0
    for r in _REVERSIBILITY_RADII:
        for sign in (1.0, -1.0):
            wx, wy = fold_map_numeric(system, "X", (sign * r * ux, sign * r * uy))
            worst = _worst(worst, abs(sx * wy - sy * wx) / (r * r))
    return worst


def check_diabolo(n_draws, n_systems, seeds_per_system, seed):
    """Stable T-singularities: eigenvectors in the crossing region, no
    unstable-to-stable sliding communication under return-map iteration, the
    X-fold map carrying the expanding line onto the contracting one, and
    seeds on the contracting line making more return maps than their twins
    on the expanding line."""
    rng = np.random.default_rng(seed)
    bad_vectors = 0
    draws = []
    for _ in range(n_draws):
        a, b, g = _draw_stable_elliptic(rng)
        draws.append((a, b, g))
        analysis = return_map_analysis(make_parameters(a, b, g, -1.0))
        if not (
            analysis.location_contracting is EigvecLocation.IN_CROSSING
            and analysis.location_expanding is EigvecLocation.IN_CROSSING
        ):
            bad_vectors += 1
    # Iteration systems need a clear saddle margin so orbits leave the box
    # in a bounded number of return-map applications.
    iteration_draws = [t for t in draws if t[0] * t[1] - t[2] > 0.3][:n_systems]
    while len(iteration_draws) < n_systems:
        a, b, g = _draw_stable_elliptic(rng, margin=0.3)
        iteration_draws.append((a, b, g))
    outcomes = DiaboloReport()
    cone = DiaboloReport()
    twins = DiaboloReport()
    reversal = _Tally()  # one map per system: its six X-fold flights
    for a, b, g in iteration_draws:
        system = build_normal_form(a, b, g, -1.0)
        starts = [
            (-rng.uniform(0.01, 0.1), -rng.uniform(0.01, 0.1))
            for _ in range(seeds_per_system)
        ]
        _iterate_seeds(system, starts, outcomes)
        analysis = return_map_analysis(make_parameters(a, b, g, -1.0))
        residual = reversal.run(_reversal_residual, system, analysis)
        if residual is not None:
            reversal.fold("diabolo reversibility", residual)
        for vector, report in ((analysis.v_contracting, cone), (analysis.v_expanding, twins)):
            vx, vy = vector
            starts = [(s * r * vx, s * r * vy) for r in _CONE_RADII for s in (1.0, -1.0)]
            _iterate_seeds(system, starts, report)
    long_runs = sum(n > m for n, m in zip(cone.iterations, twins.iterations))
    cone_fraction = long_runs / len(cone.iterations) if cone.iterations else 0.0
    histogram = dict(sorted(Counter(cone.iterations).items()))
    return [
        _count_row("diabolo eigenvectors in crossing", bad_vectors, f"{n_draws} stable draws"),
        # A seed with a non-finite image may have landed in stable sliding.
        _count_row(
            "diabolo sliding separation",
            outcomes.violations + outcomes.nonfinite,
            f"{len(outcomes.iterations)} iterated unstable-sliding seeds: "
            + outcomes.outcomes(),
        ),
        reversal.row(
            "diabolo reversibility",
            _REVERSIBILITY_TOL,
            f"{n_systems} systems, X-fold images of points at r in "
            f"{_REVERSIBILITY_RADII} along the expanding direction; "
            f"{reversal.failures()} systems with a failed fold map",
        ),
        CheckResult(
            "diabolo contracting cone",
            cone_fraction >= _CONE_MIN_FRACTION,
            1.0 - cone_fraction,
            1.0 - _CONE_MIN_FRACTION,
            f"{long_runs}/{len(cone.iterations)} seeds on the contracting line made "
            f"more return maps than their twins on the expanding line (at most "
            f"{max(twins.iterations, default=0)}); iteration histogram {histogram}; "
            f"{cone.violations} landed in stable sliding, " + cone.outcomes(),
        ),
    ]


# ---------------------------------------------------------------------------
# Parabolic transversality coefficients


def check_parabolic_coefficients(n, seed):
    """Numeric sampling of the two transversality functions on normal forms
    converges to -2(a+b)(ab-g) and 2a(a+b)-g, and to the coefficients
    ``parabolic_transversality`` reports."""
    rng = np.random.default_rng(seed)
    name = "parabolic transversality coefficients"
    tally = _Tally()  # one fold per compared draw
    for _ in range(n):
        g = -rng.uniform(0.2, 3.0)
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0)
        d_exact = -2.0 * (a + b) * (a * b - g)
        t_exact = 2.0 * a * (a + b) - g
        if abs(d_exact) < 1e-2 or abs(t_exact) < 1e-2:
            continue
        coeffs = parabolic_transversality(make_parameters(a, b, g, -1.0))
        system = build_normal_form(a, b, g, -1.0)
        fld = normalized_sliding_field(system)
        f0 = fld.compiled()

        def d_num(x, y):
            # determinant of f0 against its transport by the X involution
            # (x, y) -> (x - 2a y, -y)
            u0, w0 = f0(x, y)
            u1, w1 = f0(x - 2.0 * a * y, -y)
            return u0 * -w1 - w0 * (u1 - 2.0 * a * w1)

        errors = []
        for th in np.linspace(0.4, math.pi - 0.4, 7):
            x, y = _PARABOLIC_RADIUS * math.cos(th), _PARABOLIC_RADIUS * math.sin(th)
            d = d_num(x, y) / (y * y)
            errors += [abs(d - d_exact) / abs(d_exact), abs(d - coeffs.D_coeff) / abs(d_exact)]
        for y in (_PARABOLIC_RADIUS, -_PARABOLIC_RADIUS):
            fx, fy = f0(-2.0 * a * y, -y)
            t_num = (fx * 1.0 + fy * (-2.0 * a)) / y
            errors += [abs(t_num - t_exact) / abs(t_exact),
                       abs(t_num - coeffs.T_coeff) / abs(t_exact)]
        tally.fold(name, *errors)
    return [tally.row(name, _PARABOLIC_REL_TOL,
                      f"{tally.folds[name]} parameter draws, radius {_PARABOLIC_RADIUS:g}")]


# ---------------------------------------------------------------------------
# Sliding tangency along trajectories


def _random_sliding_system(rng):
    def small_poly(scale, degree=1):
        terms = {}
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                if rng.random() < 0.6:
                    terms[(i, j, 0)] = scale * rng.uniform(-1.0, 1.0)
        return Poly3(terms)

    x_cz = Poly3.constant(-(0.3 + 0.7 * rng.random())) + small_poly(0.15)
    y_cz = Poly3.constant(0.3 + 0.7 * rng.random()) + small_poly(0.15)
    X = VectorField3(small_poly(0.8), small_poly(0.8), x_cz)
    Y = VectorField3(small_poly(0.8), small_poly(0.8), y_cz)
    return PiecewiseSystem(X, Y, name="random-sliding")


# Dry-friction systems run after the random ones by check_sliding_tangency.
_STICK_SLIP_RUNS = 4


def _stick_slip_system(F, v0, c):
    """Dry-friction oscillator X = (z + v0, -c*y + 0.05*x, -x - F + 0.15*z),
    Y the same with +F: it slides on -F < x < F and leaves at the visible
    Y fold x = F."""

    def oscillator(sign):
        return VectorField3(
            Poly3({(0, 0, 1): 1.0, (0, 0, 0): v0}),
            Poly3({(0, 1, 0): -c, (1, 0, 0): 0.05}),
            Poly3({(1, 0, 0): -1.0, (0, 0, 0): sign * F, (0, 0, 1): 0.15}),
        )

    box = Box(-10.0, 10.0, -10.0, 10.0, -10.0, 10.0)
    return PiecewiseSystem(oscillator(-1.0), oscillator(+1.0), box, "stick-slip")


def _sliding_runs(rng, n_sims):
    """(system, start, horizon) of each simulation: random sliding systems
    first, then stick-slip systems started in their sliding strip."""
    for _ in range(n_sims):
        system = _random_sliding_system(rng)
        p0 = (
            rng.uniform(-0.5, 0.5),
            rng.uniform(-0.5, 0.5),
            rng.uniform(0.2, 0.6),
        )
        yield system, p0, 4.0
    for _ in range(_STICK_SLIP_RUNS):
        F, v0, c = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.0), rng.uniform(0.05, 0.3)
        system = _stick_slip_system(F, v0, c)
        p0 = (rng.uniform(-0.5 * F, 0.5 * F), rng.uniform(-1.0, 1.0), 0.0)
        yield system, p0, 8.0


def check_sliding_tangency(n_sims, seed):
    """Every flow segment that enters sliding ends on the plane (|z| <=
    ``_SLIDING_TOL``), the integrator's sliding field times Yf - Xf equals
    the polynomial ``normalized_sliding_field`` at every sliding sample
    (relative to 1 + |value|), every sample lies in the stable sliding region
    {Xf <= 0 <= Yf}, and every sliding segment that switches mode leaves at
    a visible fold (|Xf| <= ``_SLIDING_TOL`` with X2f > 0, or |Yf| <=
    ``_SLIDING_TOL`` with Y2f < 0).

    The random sliding systems never slide off a fold, so
    ``_STICK_SLIP_RUNS`` dry-friction systems, which leave sliding at x = F,
    follow them; the exit check fails unless some segment exits."""
    rng = np.random.default_rng(seed)
    tally = _Tally()
    exits = 0
    bad_exits = 0
    for system, p0, horizon in _sliding_runs(rng, n_sims):
        xf = system.xf.compiled()
        yf = system.yf.compiled()
        sliding_field = _sliding_kernel(system)[0]
        normalized = normalized_sliding_field(system)
        traj = filippov_trajectory(system, p0, horizon)
        for before, seg in zip([None] + traj.segments, traj.segments):
            if seg.mode is not Mode.SLIDING:
                continue
            if before is not None:  # a flow segment that enters sliding
                tally.fold("sliding entry |z|", abs(before.points[-1][2]))
            for x, y, _ in seg.points:
                a, c = xf(x, y, 0.0), yf(x, y, 0.0)
                for got, ref in zip(sliding_field(x, y), (normalized.px, normalized.py)):
                    value = ref.eval(x, y, 0.0)
                    error = abs(got * (c - a) - value) / (1.0 + abs(value))
                    tally.fold("sliding field vs normalized field", error)
                tally.fold("sliding region membership", a, -c)
            if seg.terminal is FlightStatus.MODE_SWITCH:
                exits += 1
                x, y, _ = seg.points[-1]
                q = (x, y, 0.0)
                visible_x = abs(xf(*q)) <= _SLIDING_TOL and system.x2f.eval_at(q) > 0.0
                visible_y = abs(yf(*q)) <= _SLIDING_TOL and system.y2f.eval_at(q) < 0.0
                if not (visible_x or visible_y):
                    bad_exits += 1
    samples = tally.folds["sliding region membership"]  # one fold per sliding sample
    return [
        tally.row("sliding entry |z|", _SLIDING_TOL,
                  f"worst |z| over {tally.folds['sliding entry |z|']} entries into sliding"),
        tally.row("sliding field vs normalized field", _SLIDING_TOL,
                  f"worst relative error over {samples} sliding samples"),
        tally.row("sliding region membership", _SLIDING_TOL,
                  f"worst max(Xf, -Yf) over {samples} sliding samples"),
        CheckResult(
            "sliding exits at visible folds",
            bad_exits == 0 and exits > 0,
            float(bad_exits),
            0.0,
            f"{bad_exits} of {exits} sliding exits not at a visible fold",
        ),
    ]


# ---------------------------------------------------------------------------
# Region atlases (figure structure reproduction)


def _return_map_cell(analysis):
    if analysis.fixed_point_class is not FixedPointClass.SADDLE:
        return "NH"
    pattern = (analysis.location_contracting, analysis.location_expanding)
    return {
        (EigvecLocation.IN_SLIDING, EigvecLocation.IN_SLIDING): "I",
        (EigvecLocation.IN_SLIDING, EigvecLocation.IN_CROSSING): "II",
        (EigvecLocation.IN_CROSSING, EigvecLocation.IN_CROSSING): "III",
        (EigvecLocation.IN_CROSSING, EigvecLocation.IN_SLIDING): "IV",
    }.get(pattern, "NH")


def _analytic_return_map_cell(a, b, g):
    ab = a * b
    if 0.0 <= ab <= g:
        return "NH"
    if a > 0 and b > 0:
        return "I"
    if a < 0 and b > 0:
        return "II"
    if a < 0 and b < 0:
        return "III"
    return "IV"


def _analytic_sliding_tag(a, b, g, d):
    if g > 0 and d < 0:  # elliptic
        return "RE1" if (a * b > g and a < 0 and b < 0) else "RE2"
    if g < 0 and d > 0:  # hyperbolic
        return "RH1" if (a * b < g and a > 0) else "RH2"
    # parabolic invisible-visible
    ab = a * b
    w = (b - a) + 2.0 * math.sqrt(-g)
    if ab < g:
        return "RP1" if a < 0 else "RP2"
    if w < 0.0:
        if a + b > 0:
            return "RP3"
        if a + b < 0:
            return "RP4"
    return "boundary"


def _cell_has_boundary(a, b, step, boundary_values):
    """True if a classification-boundary function changes sign over the
    corners of the step x step cell centred on (a, b), or vanishes there;
    ``boundary_values(alpha, beta)`` returns the tuple of function values."""
    corners = [
        boundary_values(a - step / 2, b - step / 2),
        boundary_values(a + step / 2, b - step / 2),
        boundary_values(a - step / 2, b + step / 2),
        boundary_values(a + step / 2, b + step / 2),
    ]
    return any(min(vals) <= 0.0 <= max(vals) for vals in zip(*corners))


def _sweep(resolution, label, oracle, boundary_values):
    """Compare the library's ``label(alpha, beta)`` with the analytic
    ``oracle(alpha, beta)`` on a resolution x resolution grid over [-3, 3]^2.
    Returns the number of cells that disagree with no boundary through them,
    and the set of labels seen."""
    grid = np.linspace(-3.0, 3.0, resolution)
    step = grid[1] - grid[0]
    bad = 0
    seen = set()
    for a in grid:
        for b in grid:
            got = label(a, b)
            seen.add(got)
            if got != oracle(a, b) and not _cell_has_boundary(a, b, step, boundary_values):
                bad += 1
    return bad, seen


def check_return_map_atlas(resolution):
    """The (alpha, beta) sweep reproduces the four saddle cells plus the
    non-hyperbolic band, with boundaries localized within one grid cell; a
    missing cell counts as one more bad cell."""
    bad, seen = _sweep(
        resolution,
        lambda a, b: _return_map_cell(
            return_map_analysis(make_parameters(a, b, _ATLAS_GAMMA, -1.0))
        ),
        lambda a, b: _analytic_return_map_cell(a, b, _ATLAS_GAMMA),
        lambda ca, cb: (ca, cb, ca * cb, ca * cb - _ATLAS_GAMMA),
    )
    if not seen >= {"I", "II", "III", "IV", "NH"}:
        bad += 1
    return [_count_row("return-map atlas", bad,
                       f"{resolution}x{resolution} cells; observed cells {sorted(seen)}")]


def check_sliding_atlas(resolution):
    """Sliding sweeps reproduce the RE/RH/RP cell structures; each case
    with a missing cell counts as one more bad cell."""
    cases = (
        (1.0, -1.0, {"RE1", "RE2"}),
        (-1.0, 1.0, {"RH1", "RH2"}),
        (-1.0, -1.0, {"RP1", "RP2", "RP3", "RP4"}),
    )
    bad = 0
    detail = []
    for gamma, delta, expect_cells in cases:
        root = 2.0 * math.sqrt(-gamma) if gamma < 0 else 0.0
        case_bad, seen = _sweep(
            resolution,
            lambda a, b: sliding_region_class(make_parameters(a, b, gamma, delta)).value,
            lambda a, b: _analytic_sliding_tag(a, b, gamma, delta),
            lambda ca, cb: (ca, cb, ca * cb - gamma, ca + cb, (cb - ca) + root),
        )
        bad += case_bad
        if not expect_cells <= seen:
            bad += 1
            detail.append(f"missing cells for gamma={gamma}: {expect_cells - seen}")
    return [_count_row("sliding atlas", bad,
                       "; ".join(detail) if detail else "RE/RH/RP structures reproduced")]


# ---------------------------------------------------------------------------
# One concrete system


def _involution_row(system, side, point, seeds):
    """The fold map of an invisible fold, applied twice, returns each seed."""
    name = f"{side}-fold involution"
    flights = _Tally()
    for q in seeds:
        back = flights.run(
            lambda p: fold_map_numeric(system, side, fold_map_numeric(system, side, p)), q
        )
        if back is not None:
            flights.fold(name, math.hypot(back[0] - q[0], back[1] - q[1]))
    return flights.row(name, _DOUBLE_TOL, "")


def _non_return_row(system, side, point, seeds):
    """No flight of a visible fold's field comes back to the plane; a seed
    where the field enters the plane is first mirrored through ``point``,
    across the fold line, to where it leaves."""
    field, leaving = (system.X, 1.0) if side == "X" else (system.Y, -1.0)
    flights = _Tally()
    for q in seeds:
        if field.cz.eval(q[0], q[1], 0.0) * leaving < 0.0:
            q = (2.0 * point[0] - q[0], 2.0 * point[1] - q[1])
        flights.run(fold_map_numeric, system, side, q)
    returned = len(seeds) - flights.failures()
    return CheckResult(f"{side}-fold non-return", returned == 0, float(returned), 0.0,
                       f"{returned} of {len(seeds)} flights returned")


def check_system(system, point, seed):
    """Consistency checks for one concrete system at a two-fold candidate:
    the classification, then the rows its closed-form subtype calls for.
    An invisible fold's numeric fold map must be an involution.  Flights of
    a visible fold's field from seeds near its fold line, on the side where
    the field leaves the plane, must not return to it inside the guard of
    ``fold_map_numeric``.  The numeric return-map spectrum is
    checked against the normal parameters at an invisible two-fold only.
    The classification row names every row that does not apply."""
    two_fold = None
    try:
        surface = surface_point_report(system, point)
    except PreconditionError as exc:
        detail = str(exc)
    else:
        two_fold = surface.foldfold
        info = surface.tangency
        detail = "point is not in the tangency band" if info is None else info.ttype.value
    if two_fold is None:
        return [CheckResult("two-fold classification", False, 1.0, 0.0, detail)]

    params = two_fold.params
    sub = params.subtype
    visible = {"X": params.delta > 0, "Y": params.gamma < 0}
    skipped = [f"{side}-fold {'involution' if visible[side] else 'non-return'}" for side in "XY"]
    if sub is not FoldFoldSubtype.INVISIBLE:
        skipped += ["return-map determinant", "return-map trace vs normal parameters"]
    results = [
        CheckResult("two-fold classification", True, 0.0, 0.0,
                    f"{detail} ({sub.value}); not applicable: {', '.join(skipped)}")
    ]

    rng = np.random.default_rng(seed)
    for side in ("X", "Y"):
        seeds = [(point[0] + rng.uniform(-0.05, 0.05), point[1] + rng.uniform(-0.05, 0.05))
                 for _ in range(25)]
        row = _non_return_row if visible[side] else _involution_row
        results.append(row(system, side, point, seeds))
    if sub is not FoldFoldSubtype.INVISIBLE:
        return results

    flights = _Tally()
    jac = flights.run(jacobian_numeric, lambda q: return_map_numeric(system, q),
                      (point[0], point[1]), _JACOBIAN_STEP)
    if jac is not None:
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        tr = jac[0, 0] + jac[1, 1]
        trace = two_fold.analysis.trace  # set exactly for invisible two-folds
        flights.fold("return-map determinant", abs(det - 1.0))
        flights.fold("return-map trace vs normal parameters", abs(tr - trace))
    return results + [
        flights.row("return-map determinant", _SYSTEM_DET_TOL, ""),
        flights.row("return-map trace vs normal parameters", _SYSTEM_TRACE_TOL, ""),
    ]


# ---------------------------------------------------------------------------
# Suite registry


MAX_BASE_COUNT = 20000  # largest sample count of a suite at scale 1 (saddle draws)

SUITES = {
    "involutions": lambda scale, seed: (
        check_involution_ground_truth(
            n_alpha=max(4, int(20 * scale)), n_points=max(5, int(40 * scale)), seed=seed
        )
        + check_return_map_grid(
            n_alpha=max(4, int(12 * scale)),
            n_beta=max(4, int(12 * scale)),
            gammas=(0.5, 2.0),
        )
    ),
    "regions": lambda scale, seed: (
        check_saddle_dichotomy(n=max(100, int(MAX_BASE_COUNT * scale)), seed=seed)
        + check_eigenvector_locations(n_per_cell=max(50, int(2000 * scale)), seed=seed)
        + check_region_spectra(n_per_region=max(50, int(2000 * scale)), seed=seed)
        + check_rescaling_invariance(n=max(50, int(2000 * scale)), seed=seed)
        + check_demelo_palis(n=max(50, int(2000 * scale)), seed=seed)
        + check_return_map_atlas(resolution=max(20, int(60 * scale)))
        + check_sliding_atlas(resolution=max(20, int(60 * scale)))
        + check_parabolic_coefficients(n=max(5, int(15 * scale)), seed=seed)
    ),
    "diabolo": lambda scale, seed: check_diabolo(
        n_draws=max(5, int(40 * scale)),
        n_systems=max(2, int(4 * scale)),
        seeds_per_system=max(5, int(25 * scale)),
        seed=seed,
    ),
    "sliding": lambda scale, seed: check_sliding_tangency(
        n_sims=max(5, int(30 * scale)), seed=seed
    ),
}


def run_suites(names, scale, seed):
    results = []
    for name in names:
        results.extend(SUITES[name](scale=scale, seed=seed))
    return results
