"""Pinned SHA-256 digests of the sweep's label columns, of the numeric
route and of the linear fold path, with the recipes that compute them.
Plain Python: this module imports neither pytest nor numpy, so the tests
import it and it also runs on an interpreter with nothing installed:

    PYTHONPATH=src:tests python -m pinned_digests

checks every digest and one two-fold ``classify`` (its return map wraps
the sweep core's tuple), and that numpy was not loaded."""

import functools
import hashlib
import json
import os
import sys
import tempfile

from foldatlas.cli import SweepSpec, main as cli_main, run_sweep
from foldatlas.errors import IntegrationFailure
from foldatlas.integrator import (
    FlightStatus, fold_map_numeric, integrate_to_sigma, return_map_numeric,
)
from foldatlas.system import Box, build_normal_form, serialize_system

# Normal form whose Y fold is invisible, with higher-order terms that make
# the flights non-polynomial in time (so no interpolant is exact on them).
HOT = {
    "cx": [[[1, 0, 0], 0.3], [[0, 0, 1], -0.4]],
    "cy": [[[0, 1, 0], 0.25]],
    "cz": [[[2, 0, 0], 0.45], [[1, 1, 0], -0.35], [[0, 0, 2], 0.3]],
}


def hot_normal_form():
    return build_normal_form(-0.6, 1.2, 0.8, -1.0, hot=HOT)


# (gamma, delta) groups of the sweep, each with its grid size and digest:
# |gamma| = 1, where 2*beta/gamma is exact, and two non-unit sizes of each
# sign; then parabolic atlases on the half-integer grid, whose rows land
# exactly on alpha = 0, alpha + beta = 0 and T = 2*alpha*(alpha + beta) - gamma
# = 0 (the visible-invisible ones through exact mirrors, sqrt(gamma) a power of 2).
SWEEP_LABEL_DIGESTS = [
    ([(1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, 1.0)], 101,
     "45626ffc14b386d636e288afb47fd511f10b6418032ace0860f647a27a0032d4"),
    ([(g, d) for g in (0.37, -0.37, 2.9, -2.9) for d in (-1.0, 1.0)], 101,
     "e1f50736091ab79ffcfcfe864003f82a686e996b2b075109808f668b98cca77f"),
    ([(-1.0, -1.0), (-0.5, -1.0), (-2.0, -1.0), (1.0, 1.0), (0.25, 1.0), (4.0, 1.0)], 13,
     "b367b7b9e836eaf5b822647d3295e0ef29536a6366fa939208eb6e6905c62392"),
]

NUMERIC_ROUTE_DIGEST = "99e76792631f1a6cd3abb6a85993c8c5804a9516adb5666cf4ba79deeee3d1af"

LINEAR_FOLD_PATH_DIGEST = "2b64bea22e5932521e6265fea2e5ae9a4681e08a8a2faba1df8a0a79679341a6"


def sweep_label_digest(pairs, n=101):
    """SHA-256 over every line, header included, of the n x n atlases on
    [-3, 3]^2 of each (gamma, delta) in ``pairs``, keeping the first nine
    fields (all but tau, which follows the last bits of the return-map trace)."""
    digest = hashlib.sha256()
    for gamma, delta in pairs:
        text = run_sweep(SweepSpec((-3.0, 3.0, n), (-3.0, 3.0, n), gamma, delta))
        for line in text.splitlines():
            digest.update((",".join(line.split(",")[:9]) + "\n").encode())
    return digest.hexdigest()


def _feed(digest, *values):
    digest.update((",".join(v.hex() if isinstance(v, float) else repr(v)
                            for v in values) + ";").encode())


def _feed_maps(feed, system, xs, ys):
    """Feed the return map and both fold maps of ``system`` at each point of
    the grid ``xs`` x ``ys``, a failed map by its flight status."""
    maps = [("R", functools.partial(return_map_numeric, system))] + [
        (side, functools.partial(fold_map_numeric, system, side)) for side in "XY"]
    for x in xs:
        for y in ys:
            for label, fn in maps:
                try:
                    feed(label, *fn((x, y)))
                except IntegrationFailure as exc:
                    feed(label, exc.status.value)


def numeric_route_digest():
    """SHA-256 over ``float.hex`` and ``repr`` of the numeric route where
    the fold maps are not linear: the return map and both fold maps of
    normal forms with higher-order terms in Y, at points on both sides of
    each fold line (y = 0 for X, x = 0 for Y) and on it; every field of
    ``integrate_to_sigma``'s results, one ``no-return`` and one
    ``left-box`` among them; and the names and documents of normal forms
    and of their time reversals."""
    digest = hashlib.sha256()
    feed = functools.partial(_feed, digest)
    forms = [
        hot_normal_form(),
        build_normal_form(1.3, -0.7, 1.6, -1.0, hot={
            "cx": [[[0, 1, 0], 0.2], [[1, 1, 0], -0.3]],
            "cy": [[[1, 0, 0], -0.1], [[0, 0, 1], 0.25]],
            "cz": [[[2, 0, 0], -0.3], [[0, 2, 0], 0.2], [[1, 0, 1], 0.15], [[0, 1, 2], -0.1]]}),
        build_normal_form(0.4, 0.9, -1.2, 1.0, hot={"cz": [[[1, 1, 0], 0.5]]}),  # both visible
    ]
    for system in forms:
        _feed_maps(feed, system, (-0.12, -0.03, 0.0, 0.05, 0.11), (-0.1, -0.02, 0.0, 0.04, 0.09))
    system = forms[0]
    flights = [
        (system.X, (0.05, -0.1, 0.0), 1),
        (system.Y, (-0.1, 0.05, 0.0), -1),
        (system.Y, (-0.15, -0.08, 0.0), -1),
        (forms[1].Y, (-0.07, 0.03, 0.0), -1),
        (system.X, (0.0, 0.1, 0.0), 1),  # Xf = -0.1 < 0: no return
        (system.X, (0.0, -0.1, 0.0), 1, Box(-0.01, 0.01, -0.01, 0.01, -0.01, 0.01)),  # left-box
    ]
    statuses = set()
    for field, q, direction, *box in flights:
        res = integrate_to_sigma(field, q, direction, *box)
        statuses.add(res.status)
        point = () if res.point is None else res.point
        feed(res.status.value, *point, res.time, res.event, res.accepted, res.rejected)
    assert {FlightStatus.HIT_SIGMA, FlightStatus.NO_RETURN, FlightStatus.LEFT_BOX} <= statuses
    for params in [(-0.6, 1.2, 0.8, -1.0), (1, -2, 3, 1), (0.1, 1e-20, -3.5, -1.0),
                   (2.0 / 3.0, -0.0, 7, 1.0)]:
        nf = build_normal_form(*params)
        feed(nf.name, nf.time_reversed().name, serialize_system(nf))
    feed(forms[1].name, serialize_system(forms[1].time_reversed()))
    return digest.hexdigest()


def linear_fold_path_digest():
    """SHA-256 over ``float.hex`` and ``repr`` of the fold path on normal
    forms without higher-order terms: both fold maps and the return map on
    a grid through both fold lines, each flight forwards or backwards in
    time by its side of the fold line, and the central differences of the
    return map at two points as ``jacobian_numeric`` takes them (which
    loads numpy, so they are written out here).  alpha = 0 and beta = 0
    give empty components, and delta takes both signs, so visible X folds
    fail their flights (fed by status)."""
    digest = hashlib.sha256()
    feed = functools.partial(_feed, digest)
    h = 1e-3
    for params in [(0.0, 1.3, 0.9, -1.0), (-0.7, 0.0, 1.6, -1.0), (2.5, -1.4, 0.5, -1.0),
                   (0.0, -0.8, 1.1, 1.0), (1.2, 0.6, -1.7, 1.0), (-1.9, 2.2, -0.4, -1.0)]:
        system = build_normal_form(*params)
        return_map = functools.partial(return_map_numeric, system)
        _feed_maps(feed, system, (-0.1, -0.02, 0.0, 0.03, 0.08), (-0.09, -0.01, 0.0, 0.04, 0.1))
        for x, y in ((0.0, 0.0), (0.02, -0.03)):
            try:
                fxp, fxm = return_map((x + h, y)), return_map((x - h, y))
                fyp, fym = return_map((x, y + h)), return_map((x, y - h))
            except IntegrationFailure as exc:
                feed("J", exc.status.value)
                continue
            feed("J", (fxp[0] - fxm[0]) / (2 * h), (fyp[0] - fym[0]) / (2 * h),
                 (fxp[1] - fxm[1]) / (2 * h), (fyp[1] - fym[1]) / (2 * h))
    return digest.hexdigest()


def main():
    for pairs, n, expected in SWEEP_LABEL_DIGESTS:
        got = sweep_label_digest(pairs, n)
        assert got == expected, (pairs, got)
    got = numeric_route_digest()
    assert got == NUMERIC_ROUTE_DIGEST, got
    got = linear_fold_path_digest()
    assert got == LINEAR_FOLD_PATH_DIGEST, got
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hot.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_system(hot_normal_form()))
        out = os.path.join(tmp, "report.json")
        assert cli_main(["classify", path, "--point", "0,0,0", "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["tangency"]["ttype"] == "fold-fold"
        # the report's return map is the wrapped core tuple of a saddle
        two_fold = report["foldfold"]
        assert two_fold["return_map"]["fixed_point_class"] == "saddle"
        assert len(two_fold["return_map"]["eigenvalues"]) == 2
        assert two_fold["verdict"]["kind"] == "unstable"
    assert "numpy" not in sys.modules, "numpy was imported"
    print(sys.version.split()[0], ": five digests held, a two-fold classified, no numpy")


if __name__ == "__main__":
    main()
