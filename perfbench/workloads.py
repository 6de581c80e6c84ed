"""The four seeded benchmark workloads and their output oracles.

Each workload turns a seed into a pool of inputs (``make_inputs``), runs one
item of program work on an input (``run``) and judges the output with an
oracle that does not reuse the code under test (``check``; it returns None
for a correct output and a one-line reason otherwise).

Calls into foldatlas go through module attributes (``integrator.x`` rather
than a name imported once), so that the span wrappers the traced run
installs on those modules see every call the benchmark makes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from foldatlas import cli, foldfold, integrator, sigma, system
from foldatlas.algebra import Poly3, VectorField3

# ---------------------------------------------------------------------------
# Independent closed-form predicates (restated here, not imported from
# foldatlas, so that an oracle cannot share a defect with the code it judges).


def analytic_region_tag(a, b, g, d):
    """Sliding-region tag of normal parameters (a, b, g, d)."""
    if g > 0 and d < 0:
        return "RE1" if (a * b > g and a < 0 and b < 0) else "RE2"
    if g < 0 and d > 0:
        return "RH1" if (a * b < g and a > 0) else "RH2"
    if g > 0 and d > 0:
        # Visible-invisible: classify the mirrored invisible-visible triple
        # obtained by swapping (x, y) and flipping z.
        r = math.sqrt(g)
        a, b, g = -b / r, a / r, -1.0
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


def analytic_fixed_point_class(a, b, g, d):
    """Return-map fixed-point class; '' where the sweep reports none."""
    if not (g > 0 and d < 0):
        return ""
    ab = a * b
    if ab * (ab - g) > 0:
        return "saddle"
    if 0 < ab < g:
        return "nonhyperbolic-complex"
    return "on-boundary"


def _subtype(d, g):
    if d > 0:
        return "visible-visible" if g < 0 else "visible-invisible"
    return "invisible-visible" if g < 0 else "invisible"


def _eval_terms(terms, p):
    """Value of a polynomial given as JSON ``[[i, j, k], c]`` terms."""
    return sum(c * p[0] ** i * p[1] ** j * p[2] ** k for (i, j, k), c in terms)


def _grad_terms(terms, p):
    out = [0.0, 0.0, 0.0]
    for (i, j, k), c in terms:
        e = (i, j, k)
        for v in range(3):
            if e[v]:
                lowered = list(e)
                lowered[v] -= 1
                out[v] += c * e[v] * p[0] ** lowered[0] * p[1] ** lowered[1] * p[2] ** lowered[2]
    return out


def stratified(rng, n, lo, hi):
    """``n`` draws from [lo, hi], one in each of ``n`` equal strata, in
    random order.  Independent calls give a Latin-hypercube design, so the
    pool's mean item cost varies little from seed to seed."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


# ---------------------------------------------------------------------------
# return-map-grid


class ReturnMapGrid:
    """Numeric return-map Jacobian of a random invisible two-fold against
    the closed-form matrix (acceptance criterion 1, one grid point per item).
    """

    name = "return-map-grid"
    pool = 1024
    warmup = 5
    trace_rate = 50  # traced items per second of --seconds
    entry_tol = 1e-4

    def make_inputs(self, rng):
        n = self.pool
        cols = (
            stratified(rng, n, -3.0, 3.0), stratified(rng, n, -3.0, 3.0),
            stratified(rng, n, 0.2, 3.0),
        )
        return [tuple(float(c[k]) for c in cols) for k in range(n)]

    def run(self, inp):
        a, b, g = inp
        nf = system.build_normal_form(a, b, g, -1.0)
        jac = integrator.jacobian_numeric(
            lambda q: integrator.return_map_numeric(nf, q), (0.0, 0.0), h=1e-3
        )
        analysis = foldfold.return_map_analysis(foldfold.make_parameters(a, b, g, -1.0))
        return jac, analysis.matrix

    def check(self, inp, out):
        jac, matrix = out
        a, b, g = inp
        want = np.array([[-1.0 + 4.0 * a * b / g, -2.0 * a], [2.0 * b / g, -1.0]])
        if np.max(np.abs(np.asarray(matrix) - want)) > 1e-12 * (1.0 + np.max(np.abs(want))):
            return "closed-form matrix differs from [[-1+4ab/g, -2a], [2b/g, -1]]"
        diff = float(np.max(np.abs(np.asarray(jac) - want)))
        if not diff <= self.entry_tol:
            return f"numeric Jacobian off by {diff:.3e} > {self.entry_tol:g}"
        return None

    def expected_top_calls(self, n):
        return {"build_normal_form": n, "jacobian_numeric": n, "return_map_analysis": n}


# ---------------------------------------------------------------------------
# stick-slip-orbits

_STICK_SLIP_BOX = (-10.0, 10.0, -10.0, 10.0, -10.0, 10.0)
_EVENT_TOL = 1e-12  # IntegratorConfig.event_tol default


def _dry_friction_field(F, v0, c, sign):
    """(z + v0, -c*y + 0.05*x, -x + sign*F + 0.15*z)."""
    return VectorField3(
        Poly3({(0, 0, 1): 1.0, (0, 0, 0): v0}),
        Poly3({(0, 1, 0): -c, (1, 0, 0): 0.05}),
        Poly3({(1, 0, 0): -1.0, (0, 0, 0): sign * F, (0, 0, 1): 0.15}),
    )


class StickSlipOrbits:
    """Dry-friction oscillator: long Filippov trajectories that alternate
    sliding and slip, leaving the sliding region at visible folds."""

    name = "stick-slip-orbits"
    pool = 64
    warmup = 1
    trace_rate = 1
    horizon = 50.0

    def make_inputs(self, rng):
        n = self.pool
        F, v0, c = (
            stratified(rng, n, 0.5, 1.5), stratified(rng, n, 0.2, 1.0),
            stratified(rng, n, 0.05, 0.3),
        )
        # Start inside the sliding strip -F < x < F on the plane.
        u, y0 = stratified(rng, n, -0.9, 0.9), stratified(rng, n, -1.0, 1.0)
        return [
            (float(F[k]), float(v0[k]), float(c[k]), (float(u[k] * F[k]), float(y0[k]), 0.0))
            for k in range(n)
        ]

    def run(self, inp):
        F, v0, c, p0 = inp
        box = system.Box(*_STICK_SLIP_BOX)
        ps = system.PiecewiseSystem(
            _dry_friction_field(F, v0, c, -1.0), _dry_friction_field(F, v0, c, +1.0),
            box, "stick-slip",
        )
        cfg = integrator.IntegratorConfig(box=box)
        return integrator.filippov_trajectory(ps, p0, self.horizon, cfg)

    def check(self, inp, traj):
        F, v0, c, _ = inp
        # Lie derivatives of f = z in closed form: Xf = -x - F + 0.15 z,
        # Yf = -x + F + 0.15 z; second derivatives on the plane z = 0.
        tol = 1e-9 * (1.0 + max(1.0, F, v0, c))
        if traj.status != "time-out":
            return f"status {traj.status!r}, expected 'time-out'"
        if abs(traj.total_time - self.horizon) > 1e-9 * self.horizon:
            return f"total time {traj.total_time!r} != horizon"
        lo, hi = _STICK_SLIP_BOX[0::2], _STICK_SLIP_BOX[1::2]
        for n, seg in enumerate(traj.segments):
            pts = np.asarray(seg.points)
            if len(pts) == 0:
                return f"segment {n} is empty"
            if np.any(pts < lo) or np.any(pts > hi):
                return f"segment {n} leaves the box"
            x, z = pts[:, 0], pts[:, 2]
            mode = seg.mode.value
            if mode == "sliding":
                if np.max(np.abs(z)) > _EVENT_TOL:
                    return f"sliding segment {n} has |z| = {np.max(np.abs(z)):.3e}"
                xf, yf = -x - F, -x + F
                if np.max(xf) > tol or np.min(yf) < -tol:
                    return f"sliding segment {n} leaves {{Xf <= 0 <= Yf}}"
                if seg.terminal.value == "mode-switch":
                    xe = x[-1]
                    xf_e, yf_e = -xe - F, -xe + F
                    x2f, y2f = -v0 + 0.15 * xf_e, -v0 + 0.15 * yf_e
                    visible = (abs(yf_e) <= tol and y2f < 0.0) or (
                        abs(xf_e) <= tol and x2f > 0.0
                    )
                    if not visible:
                        return f"sliding segment {n} exits away from a visible fold"
            elif mode == "flow+":
                if np.min(z) < -_EVENT_TOL:
                    return f"flow+ segment {n} dips to z = {np.min(z):.3e}"
            elif mode == "flow-":
                if np.max(z) > _EVENT_TOL:
                    return f"flow- segment {n} rises to z = {np.max(z):.3e}"
            else:
                return f"segment {n} has unknown mode {mode!r}"
        return None

    def expected_top_calls(self, n):
        return {"filippov_trajectory": n}


# ---------------------------------------------------------------------------
# atlas-sweep

_SIGN_PAIRS = ((1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, 1.0))  # (sign g, d)


class AtlasSweep:
    """Closed-form (alpha, beta) atlas through the CLI sweep, cycling the
    four two-fold subtypes."""

    name = "atlas-sweep"
    pool = 64
    warmup = 1
    trace_rate = 2
    resolution = 20
    header = "alpha,beta,gamma,delta,region,claim,fixed_point_class,verdict,reason,tau"

    def make_inputs(self, rng):
        magnitudes = [stratified(rng, self.pool // 4, 0.2, 3.0) for _ in _SIGN_PAIRS]
        out = []
        for k in range(self.pool):
            sg, d = _SIGN_PAIRS[k % 4]
            out.append((sg * float(magnitudes[k % 4][k // 4]), d))
        return out

    def run(self, inp):
        g, d = inp
        r = self.resolution
        spec = cli.SweepSpec(alpha=(-3.0, 3.0, r), beta=(-3.0, 3.0, r), gamma=g, delta=d)
        return cli.run_sweep(spec)

    def _labels(self, a, b, g, d):
        return analytic_region_tag(a, b, g, d), analytic_fixed_point_class(a, b, g, d)

    def check(self, inp, text):
        g, d = inp
        lines = text.splitlines()
        if not lines or lines[0] != self.header:
            return "bad CSV header"
        grid = np.linspace(-3.0, 3.0, self.resolution)
        half = 0.5 * (grid[1] - grid[0])
        cells = [(a, b) for a in grid for b in grid]
        if len(lines) - 1 != len(cells):
            return f"{len(lines) - 1} rows for {len(cells)} cells"
        for row, (a, b) in zip(lines[1:], cells):
            f = row.split(",")
            if len(f) != 10:
                return f"row has {len(f)} fields: {row!r}"
            if float(f[0]) != a or float(f[1]) != b or float(f[2]) != g or float(f[3]) != d:
                return f"row coordinates differ from the grid: {row!r}"
            want = self._labels(a, b, g, d)
            if (f[4], f[6]) == want:
                continue
            corners = {
                self._labels(a + sa * half, b + sb * half, g, d)
                for sa in (-1, 1) for sb in (-1, 1)
            }
            if corners == {want} and "on-boundary" not in want:
                return f"cell ({a!r}, {b!r}): got {f[4]}/{f[6]!r}, expected {want}"
        return None

    def expected_top_calls(self, n):
        return {"run_sweep": n}


# ---------------------------------------------------------------------------
# classify-systems

_HOT_MIN_ORDER = {"cx": 1, "cy": 1, "cz": 2}


def _random_hot_terms(rng):
    """Higher-order terms of Y that keep the two-fold at the origin."""
    hot = {}
    for key, low in _HOT_MIN_ORDER.items():
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            deg = int(rng.integers(low, 4))
            i = int(rng.integers(0, deg + 1))
            j = int(rng.integers(0, deg - i + 1))
            terms.append([[i, j, deg - i - j], float(rng.uniform(-0.3, 0.3))])
        hot[key] = terms
    return hot


def _clear_of_boundaries(a, b, g, d, margin=1e-3):
    """True when every region predicate is at least ``margin`` from zero."""
    if min(abs(a), abs(b)) < margin:
        return False
    if g > 0 and d > 0:
        r = math.sqrt(g)
        a, b, g = -b / r, a / r, -1.0
    checks = [a * b - g, a * b, a + b]
    if g < 0:
        checks.append((b - a) + 2.0 * math.sqrt(-g))
    return all(abs(v) > margin for v in checks)


class ClassifySystems:
    """``classify`` path on serialized concrete systems: parse, classify
    surface points, and report the two-fold at the origin."""

    name = "classify-systems"
    pool = 256
    warmup = 10
    trace_rate = 100

    def make_inputs(self, rng):
        n = self.pool
        cols = (stratified(rng, n, -3.0, 3.0), stratified(rng, n, -3.0, 3.0),
                stratified(rng, n, 0.2, 3.0))
        out = []
        for k in range(n):
            sg, d = _SIGN_PAIRS[k % 4]
            a, b, g = float(cols[0][k]), float(cols[1][k]), sg * float(cols[2][k])
            while not _clear_of_boundaries(a, b, g, d):
                a, b = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0))
            text = system.serialize_system(
                system.build_normal_form(a, b, g, d, hot=_random_hot_terms(rng))
            )
            points = [
                (0.0, 0.0, 0.0),
                (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)), 0.0),
                (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)), 0.0),
                # On the X fold line {y = 0}, away from the two-fold.
                (float(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.5)), 0.0, 0.0),
            ]
            out.append(((a, b, g, d), text, points))
        return out

    def run(self, inp):
        _, text, points = inp
        ps = system.load_system(text)
        answers = []
        report = None
        for p in points:
            cls = sigma.classify_point(ps, p)
            ttype = subtype = None
            if cls.kind is sigma.SigmaKind.TANGENCY:
                info = sigma.tangency_type(ps, p)
                ttype = info.ttype.value
                subtype = info.subtype.value if info.subtype else None
                if info.ttype is sigma.TangencyType.FOLD_FOLD:
                    report = foldfold.foldfold_report(ps, p)
            answers.append((cls.kind.value, ttype, subtype))
        return answers, report

    def check(self, inp, out):
        (a, b, g, d), text, points = inp
        answers, report = out
        doc = json.loads(text)
        X, Y = doc["X"], doc["Y"]
        scale = max(abs(c) for f in (X, Y) for comp in f.values() for _, c in comp)
        tol = 1e-9 * (1.0 + scale)
        if len(answers) != len(points):
            return f"{len(answers)} answers for {len(points)} points"
        for p, (kind, ttype, subtype) in zip(points, answers):
            xf, yf = _eval_terms(X["cz"], p), _eval_terms(Y["cz"], p)
            if abs(xf) <= tol or abs(yf) <= tol:
                want = "tangency"
            elif xf * yf > 0:
                want = "crossing"
            else:
                want = "stable-sliding" if xf < 0 < yf else "unstable-sliding"
            if kind != want:
                return f"point {p}: kind {kind!r}, expected {want!r}"
            if want != "tangency":
                continue
            if abs(xf) <= tol and abs(yf) <= tol:
                want_t, want_sub = "fold-fold", _subtype(d, g)
            elif abs(xf) <= tol:
                # X^2 f = X . grad(Xf) at the point decides fold vs cusp.
                x2f = sum(
                    _eval_terms(X[k], p) * gk
                    for k, gk in zip(("cx", "cy", "cz"), _grad_terms(X["cz"], p))
                )
                if abs(x2f) <= tol:
                    return f"point {p}: generated X fold is degenerate"
                want_t, want_sub = "fold-regular", None
            else:
                return f"point {p}: unexpected Y tangency in the generated system"
            if (ttype, subtype) != (want_t, want_sub):
                return f"point {p}: tangency {ttype}/{subtype}, expected {want_t}/{want_sub}"
        if report is None:
            return "no two-fold report at the origin"
        s = 1.0 / math.sqrt(abs(g))
        prm = report.params
        want = (a * s, b * s, math.copysign(1.0, g), d)
        got = (prm.alpha, prm.beta, prm.gamma, prm.delta)
        if any(abs(x - y) > 1e-9 * (1.0 + abs(y)) for x, y in zip(got, want)):
            return f"normal parameters {got}, expected {want} (rescaled by 1/sqrt|g|)"
        if prm.subtype.value != _subtype(d, g):
            return f"subtype {prm.subtype.value}, expected {_subtype(d, g)}"
        if report.region.value != analytic_region_tag(a, b, g, d):
            return f"region {report.region.value}, expected {analytic_region_tag(a, b, g, d)}"
        return None

    def expected_top_calls(self, n):
        # Four query points per item; one fold-fold report at the origin.
        return {"load_system": n, "classify_point": 4 * n, "foldfold_report": n}


WORKLOADS = {
    w.name: w for w in (ReturnMapGrid(), StickSlipOrbits(), AtlasSweep(), ClassifySystems())
}
