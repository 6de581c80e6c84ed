"""Acceptance gate: every criterion at its stated tolerance and sample count.

Each test prints one PASS/FAIL line (run pytest with -s to see them live).
The bounds and probe settings are constants of ``foldatlas.checks``; each
test pins them, through the thresholds its results report and the values of
the settings that are no threshold, so loosening one fails here.
"""

import pytest

from foldatlas import checks
from foldatlas.checks import (
    check_demelo_palis,
    check_diabolo,
    check_eigenvector_locations,
    check_involution_ground_truth,
    check_parabolic_coefficients,
    check_region_spectra,
    check_rescaling_invariance,
    check_return_map_atlas,
    check_return_map_grid,
    check_saddle_dichotomy,
    check_sliding_atlas,
    check_sliding_tangency,
)


def _report(number, label, results, thresholds):
    """Print the criterion's line, then require every result to pass and
    each result's threshold to be ``thresholds[name]``."""
    passed = all(r.passed for r in results)
    detail = "; ".join(
        f"{r.name}: {r.residual:.3g} (tol {r.threshold:.3g}"
        + (f"; {r.detail})" if r.detail else ")")
        for r in results
    )
    print(f"{'PASS' if passed else 'FAIL'} criterion {number} [{label}] {detail}")
    assert passed, f"criterion {number} failed: {detail}"
    assert {r.name: r.threshold for r in results} == thresholds


def test_criterion_01_return_map_formula():
    assert checks._JACOBIAN_STEP == 1e-3
    assert checks._ENTRY_TOL == 1e-4
    results = check_return_map_grid(
        n_alpha=50, n_beta=50, gammas=(0.5, 1.0, 1.5, 2.0, 3.0)
    )
    _report(1, "return-map formula reproduction", results, {
        "return-map determinant": 1e-12,
        "return-map numeric Jacobian": 1.0 - 0.99,
    })


def test_criterion_02_saddle_dichotomy():
    assert checks._DRAW_MARGIN == 1e-6
    results = check_saddle_dichotomy(n=100000, seed=20)
    _report(2, "saddle/non-hyperbolic dichotomy", results, {"saddle dichotomy": 0.0})


def test_criterion_03_eigenvector_locations():
    results = check_eigenvector_locations(n_per_cell=10000, seed=30)
    _report(3, "eigenvector location table", results, {"eigenvector location table": 0.0})


def test_criterion_04_involution_ground_truth():
    results = check_involution_ground_truth(n_alpha=20, n_points=40, seed=40)
    _report(4, "involution ground truth", results, {
        "fold-map ground truth": 1e-7,
        "fold-map involutivity": 1e-6,
    })


def test_criterion_05_region_atlas():
    results = check_return_map_atlas(resolution=200) + check_sliding_atlas(
        resolution=200
    )
    _report(5, "region atlases", results, {"return-map atlas": 0.0, "sliding atlas": 0.0})


def test_criterion_06_region_spectra():
    results = check_region_spectra(n_per_region=10000, seed=60)
    _report(6, "sliding spectra per region", results, {"region spectra sign table": 0.0})


def test_criterion_07_parabolic_coefficients():
    assert checks._PARABOLIC_RADIUS == 1e-3
    results = check_parabolic_coefficients(n=30, seed=70)
    _report(7, "parabolic transversality coefficients", results, {
        "parabolic transversality coefficients": 1e-5,
    })


def test_criterion_08_diabolo():
    results = check_diabolo(
        n_draws=100, n_systems=10, seeds_per_system=100, seed=80
    )
    _report(8, "diabolo invariance", results, {
        "diabolo eigenvectors in crossing": 0.0,
        "diabolo sliding separation": 0.0,
        "diabolo reversibility": 1e-3,
        "diabolo contracting cone": 1.0 - 0.9,
    })


def test_criterion_09_demelo_palis():
    results = check_demelo_palis(n=10000, seed=90)
    _report(9, "saddle moduli ratio", results, {"saddle moduli ratio = -1": 1e-12})


def test_criterion_10_rescaling_invariance():
    assert checks._RESCALING_FACTORS == (0.1, 0.5, 2.0, 10.0)
    assert checks._BOUNDARY_MARGIN == 1e-4
    results = check_rescaling_invariance(n=10000, seed=100)
    _report(10, "normalization invariance", results, {"rescaling invariance": 0.0})


def test_criterion_11_sliding_tangency():
    results = check_sliding_tangency(n_sims=100, seed=110)
    _report(11, "sliding tangency", results, {
        "sliding entry |z|": 1e-10,
        "sliding field vs normalized field": 1e-10,
        "sliding region membership": 1e-10,
        "sliding exits at visible folds": 0.0,
    })
