import ast
import dataclasses
import math

import numpy as np
import pytest

from foldatlas import algebra, checks, cli, foldfold, sigma, sliding
from foldatlas.algebra import Poly3, VectorField3, lazy
from foldatlas.errors import IntegrationFailure, PreconditionError
from foldatlas.foldfold import (
    EigvecLocation,
    FixedPointClass,
    InstabilityReason,
    NormalParameters,
    StabilityVerdict,
    VerdictKind,
    demelo_palis,
    foldfold_report,
    make_parameters,
    mirror_parameters,
    moduli_info,
    parabolic_transversality,
    ReturnMapAnalysis,
    report_from_params,
    return_map_analysis,
    _eigvec2,
    surface_point_report,
)
from foldatlas.integrator import FlightStatus, fold_map_numeric, jacobian_numeric
from foldatlas.sigma import FoldFoldSubtype, SigmaKind, classify_point
from foldatlas.sliding import BOUNDARY_BAND, SlidingRegionTag, near, parabolic_cell
from foldatlas.system import PiecewiseSystem, build_normal_form


class TestNormalParameterExtraction:
    def test_exact_round_trip(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        p = foldfold_report(system, (0.0, 0.0, 0.0)).params
        assert (p.alpha, p.beta, p.gamma, p.delta) == (-1.0, -1.0, 1.0, -1.0)
        assert p.subtype is FoldFoldSubtype.INVISIBLE

    def test_gamma_rescaling(self):
        system = build_normal_form(-1.0, -1.0, 0.5, -1.0)
        p = foldfold_report(system, (0.0, 0.0, 0.0)).params
        assert p.alpha == pytest.approx(-math.sqrt(2.0), rel=1e-14)
        assert p.beta == pytest.approx(-math.sqrt(2.0), rel=1e-14)
        assert p.gamma == 1.0
        # the verdict agrees between raw and rescaled triples
        raw = report_from_params(make_parameters(-1.0, -1.0, 0.5, -1.0)).verdict
        extracted = report_from_params(p).verdict
        assert raw.kind is extracted.kind is VerdictKind.STABLE

    def test_visible_visible(self):
        system = build_normal_form(1.0, -1.0, -1.0, 1.0)
        p = foldfold_report(system, (0.0, 0.0, 0.0)).params
        assert (p.alpha, p.beta, p.gamma, p.delta) == (1.0, -1.0, -1.0, 1.0)
        assert p.subtype is FoldFoldSubtype.VISIBLE_VISIBLE

    def test_round_trip_with_higher_order_terms(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rng.uniform(-2, 2, size=2)
            g = float(rng.choice((-1.0, 1.0)))
            d = float(rng.choice((-1.0, 1.0)))
            hot = {
                "cx": [[[1, 0, 0], float(rng.uniform(-0.5, 0.5))],
                       [[0, 0, 1], float(rng.uniform(-0.5, 0.5))]],
                "cy": [[[0, 1, 0], float(rng.uniform(-0.5, 0.5))]],
                "cz": [[[2, 0, 0], float(rng.uniform(-0.5, 0.5))],
                       [[1, 1, 0], float(rng.uniform(-0.5, 0.5))]],
            }
            system = build_normal_form(a, b, g, d, hot=hot)
            p = foldfold_report(system, (0.0, 0.0, 0.0)).params
            assert p.alpha == pytest.approx(a, abs=1e-10)
            assert p.beta == pytest.approx(b, abs=1e-10)
            assert p.gamma == g
            assert p.delta == d

    def test_rejects_non_two_fold(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        with pytest.raises(PreconditionError):
            foldfold_report(system, (0.5, 0.5, 0.0))


# (delta, sign gamma) of each subtype
_SUBTYPE_SIGNS = {
    FoldFoldSubtype.INVISIBLE: (-1.0, 1.0),
    FoldFoldSubtype.VISIBLE_VISIBLE: (1.0, -1.0),
    FoldFoldSubtype.INVISIBLE_VISIBLE: (-1.0, -1.0),
    FoldFoldSubtype.VISIBLE_INVISIBLE: (1.0, 1.0),
}


class TestSubtypeDerivation:
    """The subtype is derived from (delta, sign gamma) when the parameters
    are built; the one place a second derivation meets it is the two-fold
    extraction, which compares it with the tangency subtype from ``sigma``."""

    @pytest.mark.parametrize("subtype", list(_SUBTYPE_SIGNS))
    def test_subtype_follows_signs(self, subtype):
        d, sg = _SUBTYPE_SIGNS[subtype]
        for g in (0.7 * sg, 1e-100 * sg, 1e300 * sg):
            assert NormalParameters(1.0, 2.0, g, d).subtype is subtype
            assert make_parameters(1, 2, g, int(d)).subtype is subtype

    def test_subtype_is_not_an_argument(self):
        with pytest.raises(TypeError):
            NormalParameters(1.0, 2.0, 0.7, -1.0, FoldFoldSubtype.INVISIBLE)
        with pytest.raises(TypeError):
            NormalParameters(1.0, 2.0, 0.7, -1.0, subtype=FoldFoldSubtype.INVISIBLE)

    @pytest.mark.parametrize("delta", [-1.0, 1.0])
    @pytest.mark.parametrize("gamma", [math.nan, -math.nan, 0.0, -0.0])
    def test_nan_or_zero_gamma_rejected(self, gamma, delta):
        with pytest.raises(PreconditionError):
            make_parameters(1.0, 2.0, gamma, delta)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(PreconditionError, match="alpha and beta must be finite"):
            make_parameters(alpha, 1.0, 1.0, -1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(PreconditionError, match="alpha and beta must be finite"):
            make_parameters(1.0, beta, -1.0, 1.0)

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf])
    @pytest.mark.parametrize("delta", [-1.0, 1.0])
    def test_infinite_gamma_rejected(self, gamma, delta):
        with pytest.raises(PreconditionError, match="gamma must be finite and nonzero"):
            make_parameters(1.0, 1.0, gamma, delta)

    @pytest.mark.parametrize("flip", "XY")
    @pytest.mark.parametrize("subtype", list(_SUBTYPE_SIGNS))
    def test_disagreeing_tangency_subtype_raises(self, monkeypatch, subtype, flip):
        # sigma alone reports one fold with the wrong visibility
        real = sigma.subtype_from_signs
        signs = {"X": (-1.0, 1.0), "Y": (1.0, -1.0)}[flip]
        monkeypatch.setattr(sigma, "subtype_from_signs",
                            lambda x2, y2: real(signs[0] * x2, signs[1] * y2))
        d, sg = _SUBTYPE_SIGNS[subtype]
        system = build_normal_form(0.3, 0.5, sg, d)
        with pytest.raises(PreconditionError, match="disagrees"):
            foldfold_report(system, (0.0, 0.0, 0.0))
        with pytest.raises(PreconditionError, match="disagrees"):
            surface_point_report(system, (0.0, 0.0, 0.0))


def _fold_matrix(system, side, q=(0.01, 0.02)):
    """Central-difference Jacobian of the numeric fold involution."""
    return jacobian_numeric(lambda p: fold_map_numeric(system, side, p), q, 1e-3)


class TestInvolutions:
    """The fold involutions A_X, A_Y whose product is the closed-form return
    matrix, read off the numeric fold maps of the normal form."""

    def test_example_matrices(self):
        ax = _fold_matrix(build_normal_form(-1.0, 0.3, 1.0, -1.0), "X")
        assert np.allclose(ax, [[1.0, 2.0], [0.0, -1.0]], atol=1e-7)
        assert np.allclose(ax @ ax, np.eye(2), atol=1e-7)
        ay = _fold_matrix(build_normal_form(0.3, -1.0, 1.0, -1.0), "Y")
        assert np.allclose(ay, [[-1.0, 0.0], [2.0, 1.0]], atol=1e-7)
        assert np.linalg.det(ay) == pytest.approx(-1.0, abs=1e-7)

    def test_alpha_zero_fixes_x_axis(self):
        system = build_normal_form(0.0, 1.0, 1.0, -1.0)
        for x in (-0.05, 0.03):
            assert fold_map_numeric(system, "X", (x, 0.0)) == (x, 0.0)
        ax = _fold_matrix(system, "X", (0.03, 0.0))
        assert np.allclose(ax, np.diag([1.0, -1.0]), atol=1e-7)

    def test_involution_identities_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.uniform(-3, 3, size=2)
            g = rng.uniform(0.2, 3.0)
            system = build_normal_form(a, b, g, -1.0)
            q = tuple(rng.uniform(-0.05, 0.05, size=2))
            for side in ("X", "Y"):
                back = fold_map_numeric(system, side, fold_map_numeric(system, side, q))
                assert math.hypot(back[0] - q[0], back[1] - q[1]) <= 1e-6
                det = np.linalg.det(_fold_matrix(system, side))
                assert det == pytest.approx(-1.0, abs=1e-6)

    def test_composition_identities(self):
        # M = A_X A_Y, and phi^n o phi_X = phi_X o phi^-n at the linear level
        rng = np.random.default_rng(14)
        for _ in range(10):
            a, b = rng.uniform(-3, 3, size=2)
            g = rng.uniform(0.2, 3.0)
            system = build_normal_form(a, b, g, -1.0)
            ax = _fold_matrix(system, "X")
            ay = _fold_matrix(system, "Y")
            m = return_map_analysis(make_parameters(a, b, g, -1.0)).matrix
            assert np.allclose(ax @ ay, m, atol=1e-6 * max(1.0, np.abs(m).max()))
            minv = np.linalg.inv(m)
            for n in (1, 2, 3):
                lhs = np.linalg.matrix_power(m, n) @ ax
                rhs = ax @ np.linalg.matrix_power(minv, n)
                assert np.allclose(lhs, rhs, atol=1e-6 * max(1, np.abs(lhs).max()))


class TestReturnMapAnalysis:
    def test_saddle_example(self):
        analysis = return_map_analysis(make_parameters(-1.0, -1.0, 0.5, -1.0))
        assert np.allclose(analysis.matrix, [[7.0, 2.0], [-4.0, -1.0]])
        assert analysis.trace == pytest.approx(6.0)
        assert analysis.det == pytest.approx(1.0, abs=1e-14)
        vals = sorted(abs(v) for v in analysis.eigenvalues)
        assert vals[0] == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-12)
        assert vals[1] == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-12)
        assert analysis.fixed_point_class is FixedPointClass.SADDLE
        # both eigenvector slopes are negative: crossing quadrants
        for v in (analysis.v_contracting, analysis.v_expanding):
            assert v[0] * v[1] < 0
        assert analysis.location_contracting is EigvecLocation.IN_CROSSING
        assert analysis.location_expanding is EigvecLocation.IN_CROSSING
        slopes = sorted(
            v[1] / v[0] for v in (analysis.v_contracting, analysis.v_expanding)
        )
        assert slopes[0] == pytest.approx(-3.414213562, rel=1e-8)
        assert slopes[1] == pytest.approx(-0.585786437, rel=1e-8)

    def test_complex_example(self):
        analysis = return_map_analysis(make_parameters(1.0, 1.0, 2.0, -1.0))
        assert np.allclose(analysis.matrix, [[1.0, -2.0], [1.0, -1.0]])
        assert analysis.trace == pytest.approx(0.0)
        assert analysis.fixed_point_class is FixedPointClass.NONHYPERBOLIC_COMPLEX
        assert analysis.tau == pytest.approx(math.pi / 2.0)
        assert analysis.eigenvalues[1] == pytest.approx(1j)

    def test_unit_boundary(self):
        analysis = return_map_analysis(make_parameters(-1.0, -1.0, 1.0, -1.0))
        assert analysis.trace == pytest.approx(2.0)
        assert analysis.fixed_point_class is FixedPointClass.NONHYPERBOLIC_UNIT

    def test_parabolic_boundary(self):
        analysis = return_map_analysis(make_parameters(0.0, 1.0, 1.0, -1.0))
        assert analysis.trace == pytest.approx(-2.0)
        assert analysis.fixed_point_class is FixedPointClass.PARABOLIC_BOUNDARY

    def test_requires_invisible(self):
        with pytest.raises(PreconditionError):
            return_map_analysis(make_parameters(1.0, -1.0, -1.0, 1.0))


def _draw_invisible(rng, saddle, margin=1e-6):
    """(a, b, g) of an invisible two-fold whose return map is a saddle, or
    has complex eigenvalues, clear of the boundaries by ``margin``."""
    while True:
        a, b = rng.uniform(-3.0, 3.0, size=2)
        g = rng.uniform(0.2, 3.0)
        crit = a * b * (a * b - g)
        if (crit > margin) if saddle else (crit < -margin):
            return float(a), float(b), float(g)


def check_float_core(a, b, g):
    """The return map of (a, b, g) against its plain-float formula, and its
    eigen-data against the defining equations."""
    analysis = return_map_analysis(make_parameters(a, b, g, -1.0))
    c = 2.0 * b / g
    entries = (-1.0 + (2.0 * a) * c, -2.0 * a, c, -1.0)
    assert analysis.rows == (entries[:2], entries[2:])
    m00, m01, m10, m11 = entries
    assert analysis.trace == m00 + m11
    assert analysis.det == m00 * m11 - m01 * m10
    if analysis.fixed_point_class is FixedPointClass.NONHYPERBOLIC_COMPLEX:
        assert analysis.v_contracting is None and analysis.v_expanding is None
        for lam in analysis.eigenvalues:
            assert abs(lam) == pytest.approx(1.0, abs=1e-12)
        return analysis
    assert analysis.fixed_point_class is FixedPointClass.SADDLE
    lam_c, lam_e = (lam.real for lam in analysis.eigenvalues)
    assert abs(lam_c) < 1.0 < abs(lam_e)
    bound = 1e-12 * (1.0 + max(abs(e) for e in entries))
    for v, lam in ((analysis.v_contracting, lam_c), (analysis.v_expanding, lam_e)):
        assert abs(math.hypot(*v) - 1.0) <= 1e-15
        u = np.asarray(v)
        assert np.linalg.norm(analysis.matrix @ u - lam * u) <= bound
        # the analysis returns bitwise what the float helper returns
        assert v == _eigvec2(*entries, lam)
    return analysis


class TestFloatCore:
    def test_random_saddles(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            check_float_core(*_draw_invisible(rng, saddle=True))

    def test_random_complex(self):
        rng = np.random.default_rng(32)
        for _ in range(2000):
            check_float_core(*_draw_invisible(rng, saddle=False))

    def test_wide_scales(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            a, b, g = _draw_invisible(rng, saddle=True)
            e = 10.0 ** rng.uniform(-3.0, 3.0)
            check_float_core(e * a, e * b, e * e * g)


class TestDeMeloPalis:
    def test_examples(self):
        analysis = return_map_analysis(make_parameters(-1.0, -1.0, 0.5, -1.0))
        assert demelo_palis(analysis) == pytest.approx(-1.0, abs=1e-12)

    def test_random_saddles(self):
        rng = np.random.default_rng(10)
        count = 0
        while count < 500:
            a, b = rng.uniform(-3, 3, size=2)
            g = rng.uniform(0.2, 3.0)
            if a * b * (a * b - g) <= 1e-6:
                continue
            count += 1
            analysis = return_map_analysis(make_parameters(a, b, g, -1.0))
            assert demelo_palis(analysis) == pytest.approx(-1.0, abs=1e-12)

    def test_non_saddle_rejected(self):
        with pytest.raises(PreconditionError):
            demelo_palis(return_map_analysis(make_parameters(1.0, 1.0, 2.0, -1.0)))


class TestModuli:
    def test_quarter_turn(self):
        info = moduli_info(return_map_analysis(make_parameters(1.0, 1.0, 2.0, -1.0)))
        assert info.tau == pytest.approx(math.pi / 2.0)
        assert info.tau_over_pi == pytest.approx(0.5)
        assert info.convergents[0] == (1, 2)

    def test_third_turn(self):
        # trace 1 -> eigenvalues exp(+-i pi/3): alpha*beta/gamma = 3/4
        info = moduli_info(return_map_analysis(make_parameters(1.5, 0.5, 1.0, -1.0)))
        assert info.tau == pytest.approx(math.pi / 3.0)

    def test_near_boundary(self):
        analysis = return_map_analysis(make_parameters(1e-4, 1e-4, 2.0, -1.0))
        info = moduli_info(analysis)
        assert info.tau == pytest.approx(math.pi, abs=1e-3)

    def test_convergent_denominators_capped(self):
        info = moduli_info(return_map_analysis(make_parameters(0.9, 0.7, 1.7, -1.0)))
        assert all(q <= 10**6 for _, q in info.convergents)
        best = info.convergents[-1]
        assert abs(info.tau_over_pi - best[0] / best[1]) < 1e-6

    @pytest.mark.parametrize("a,b,g,d,fp_class", [
        (-2.0, -1.0, 1.0, -1.0, FixedPointClass.SADDLE),
        (-1.0, -1.0, 1.0, -1.0, FixedPointClass.NONHYPERBOLIC_UNIT),  # a*b = g
        (0.0, 1.0, 1.0, -1.0, FixedPointClass.PARABOLIC_BOUNDARY),  # a*b = 0
        (1.0, -1.0, -1.0, 1.0, None),  # visible-visible
        (1.0, 1.0, -1.0, -1.0, None),  # invisible-visible
        (1.0, 1.0, 1.0, 1.0, None),  # visible-invisible
    ])
    def test_report_has_none_off_the_complex_case(self, a, b, g, d, fp_class):
        report = report_from_params(make_parameters(a, b, g, d))
        assert (report.analysis and report.analysis.fixed_point_class) == fp_class
        assert report.moduli is None

    def test_report_computes_moduli_when_first_read(self, monkeypatch):
        calls = []
        real = foldfold.moduli_info
        monkeypatch.setattr(foldfold, "moduli_info", lambda a: calls.append(a) or real(a))
        report = report_from_params(make_parameters(0.9, 0.7, 1.7, -1.0))
        assert report.analysis.fixed_point_class is FixedPointClass.NONHYPERBOLIC_COMPLEX
        assert calls == []
        first = report.moduli
        assert first == moduli_info(report.analysis)
        assert report.moduli is first
        assert calls == [report.analysis]


class TestVerdicts:
    def test_stable_t_singularity(self):
        v = report_from_params(make_parameters(-2.0, -1.0, 1.0, -1.0)).verdict
        assert v.kind is VerdictKind.STABLE
        assert "T-singularity" in v.class_descriptor

    def test_nonhyperbolic_unstable_with_tau(self):
        report = report_from_params(make_parameters(1.0, 1.0, 2.0, -1.0))
        v = report.verdict
        assert v.kind is VerdictKind.UNSTABLE
        assert v.reason.kind is InstabilityReason.NON_HYPERBOLIC_RETURN_MAP
        assert report.analysis.tau == pytest.approx(math.pi / 2.0)
        assert report.moduli.tau == report.analysis.tau

    def test_boundary_degenerate(self):
        v = report_from_params(make_parameters(-1.0, -1.0, 1.0, -1.0)).verdict
        assert v.kind is VerdictKind.BOUNDARY_DEGENERATE

    def test_saddle_with_sliding_manifold(self):
        v = report_from_params(make_parameters(2.0, 2.0, 1.0, -1.0)).verdict
        assert v.kind is VerdictKind.UNSTABLE
        assert v.reason.kind is InstabilityReason.INVARIANT_MANIFOLD_IN_SLIDING

    def test_parabolic_t_failure(self):
        v = report_from_params(make_parameters(-1.0, 1.5, -1.0, -1.0)).verdict
        assert v.kind is VerdictKind.UNSTABLE
        assert v.reason.kind is InstabilityReason.TRANSVERSALITY_FAILURE
        assert v.reason.which == "T"

    def test_parabolic_stable(self):
        params = make_parameters(-1.0, 1.2, -1.0, -1.0)  # RP1, T != 0
        v = report_from_params(params).verdict
        assert v.kind is VerdictKind.STABLE
        assert v.class_descriptor[1] == SlidingRegionTag.RP1.value

    def test_parabolic_alpha_zero(self):
        # alpha = 0 inside RP4: the fold-image transversality fails first
        v = report_from_params(make_parameters(0.0, -4.0, -1.0, -1.0)).verdict
        assert v.kind is VerdictKind.UNSTABLE
        assert v.reason.which == "alpha"

    def test_parabolic_d_failure(self):
        # RP2 with alpha > 0 and alpha + beta = 0
        v = report_from_params(make_parameters(2.0, -2.0, -1.0, -1.0)).verdict
        assert v.kind is VerdictKind.UNSTABLE
        assert v.reason.which == "D"

    def test_parabolic_outside_regions(self):
        v = report_from_params(make_parameters(0.2, 0.2, -1.0, -1.0)).verdict
        assert v.kind is VerdictKind.UNSTABLE
        assert v.reason.kind is InstabilityReason.SLIDING_BIFURCATION

    def test_one_band_at_the_wedge_edge(self):
        # b - a + 2 sqrt(-g) = 1e-7: 20 band widths inside the open wedge, so
        # the region is a boundary and the verdict a sliding bifurcation.
        report = report_from_params(make_parameters(0.5, -1.5 + 1e-7, -1.0, -1.0))
        assert report.region is SlidingRegionTag.BIFURCATION_BOUNDARY
        assert report.verdict.kind is VerdictKind.UNSTABLE
        assert report.verdict.reason.kind is InstabilityReason.SLIDING_BIFURCATION
        # within the band of the edge it is boundary-degenerate
        edge = make_parameters(0.5, -1.5 + 2e-9, -1.0, -1.0)
        assert report_from_params(edge).verdict.kind is VerdictKind.BOUNDARY_DEGENERATE

    def test_visible_stable_and_boundary(self):
        for a, b in ((1.0, -3.0), (-1.0, 3.0)):
            v = report_from_params(make_parameters(a, b, -1.0, 1.0)).verdict
            assert v.kind is VerdictKind.STABLE
        v = report_from_params(make_parameters(1.0, -1.0, -1.0, 1.0)).verdict
        assert v.kind is VerdictKind.BOUNDARY_DEGENERATE

    def test_visible_invisible_delegates_to_mirror(self):
        params = make_parameters(1.0, -2.0, 4.0, 1.0)
        mirrored = mirror_parameters(params)
        assert mirrored == make_parameters(1.0, 0.5, -1.0, -1.0)
        kinds = {report_from_params(p).verdict.kind for p in (params, mirrored)}
        assert len(kinds) == 1

    @pytest.mark.parametrize("subtype", [s for s in _SUBTYPE_SIGNS
                                         if s is not FoldFoldSubtype.VISIBLE_INVISIBLE])
    def test_mirror_rejects_other_subtypes(self, subtype):
        d, sg = _SUBTYPE_SIGNS[subtype]
        with pytest.raises(PreconditionError, match="visible-invisible"):
            mirror_parameters(make_parameters(1.0, -2.0, 4.0 * sg, d))

    @pytest.mark.parametrize("p,q", [
        ((-2.0, -1.0, 1.0, -1.0), (-3.0, -0.5, 1.0, -1.0)),  # saddle, crossing manifolds
        ((1.0, 1.0, 2.0, -1.0), (0.5, 1.0, 3.0, -1.0)),  # complex pair
        ((1.0, -3.0, -1.0, 1.0), (2.0, -4.0, -1.0, 1.0)),  # visible RH1
        ((-2.0, 2.5, -1.0, -1.0), (-2.5, 3.0, -1.0, -1.0)),  # parabolic RP1
        ((1.0, 2.0, 3.0, 1.0), (0.5, 1.0, 2.0, 1.0)),  # no generic region, mirrored
    ])
    def test_one_class_shares_one_verdict(self, p, q):
        u, v = (report_from_params(make_parameters(*x)).verdict for x in (p, q))
        assert u is v

    def test_verdicts_are_immutable(self):
        stable = report_from_params(make_parameters(-2.0, -1.0, 1.0, -1.0)).verdict
        unstable = report_from_params(make_parameters(1.0, 1.0, 2.0, -1.0)).verdict
        with pytest.raises(dataclasses.FrozenInstanceError):
            stable.kind = VerdictKind.UNSTABLE
        with pytest.raises(dataclasses.FrozenInstanceError):
            unstable.reason.detail = ""
        assert unstable.reason.detail.startswith("unit-circle")

    def test_saddle_eigenvector_on_the_tangency_set(self):
        # alpha*beta of order 1e-4 puts the expanding direction within the
        # band of the x axis; twice that beta leaves it in sliding
        report = report_from_params(make_parameters(1e7, -1e-11, 1.0, -1.0))
        assert report.analysis.fixed_point_class is FixedPointClass.SADDLE
        assert report.analysis.location_expanding is EigvecLocation.ON_TANGENCY
        assert report.verdict.kind is VerdictKind.BOUNDARY_DEGENERATE
        assert report.verdict.witness == "saddle eigenvector on the tangency set"
        report = report_from_params(make_parameters(1e7, -2e-11, 1.0, -1.0))
        assert report.analysis.location_expanding is EigvecLocation.IN_SLIDING
        assert report.verdict.kind is VerdictKind.UNSTABLE
        assert report.verdict.reason.kind is InstabilityReason.INVARIANT_MANIFOLD_IN_SLIDING


def _band_region(a, b, g):
    """Parabolic region by the rules that evaluate every boundary band first."""
    ab = a * b
    root = 2.0 * math.sqrt(-g)
    w = (b - a) + root
    v = a + b
    s_band, w_band, v_band, u_band = near(ab, g), near(b - a, -root), near(v, 0.0), near(a, 0.0)
    if not s_band and ab < g:
        if not w_band and w > 0.0:
            return "RP1"
        if not u_band and a > 0.0:
            return "RP2"
        return "boundary"
    if not s_band and ab > g:
        if not w_band and w < 0.0:
            if not v_band and v > 0.0:
                return "RP3"
            if not v_band and v < 0.0:
                return "RP4"
    return "boundary"


def _band_reason(a, b, g, tag):
    """(verdict kind, reason kind, failed condition) of invisible-visible
    (a, b, g) in region ``tag``, with every transversality band evaluated
    before the first failure is picked."""
    if tag == "boundary":
        ab, root = a * b, 2.0 * math.sqrt(-g)
        outside = not (near(ab, g) or near(b - a, -root)) and ab > g and (b - a) + root > 0.0
        if outside:
            return "unstable", "sliding-bifurcation", None
        return "boundary-degenerate", None, None
    fails = {
        "alpha": near(a, 0.0),
        "T": near(2.0 * a * (a + b) - g, 0.0),
        "D": a > 0.0 and near(a + b, 0.0),
    }
    for which, failed in fails.items():
        if failed:
            return "unstable", "transversality-failure", which
    return "stable", None, None


# invisible-visible (a, b, g) just inside and just outside the alpha band of
# RP2, which decides only where |b| > |g| / BOUNDARY_BAND
_RP2_ALPHA_BAND = [(1e-10, -1e10, -0.5), (2e-9, -1e10, -0.5)]


def _band_points():
    """Invisible-visible (a, b, g) at +-0.5 and +-2 band widths off each of
    the boundaries a*b = g, b - a = -2 sqrt(-g), a + b = 0 and a = 0; points
    strictly inside the open wedge; the two sides of RP2's alpha band; and
    non-finite a or b."""
    points = [(0.2, 0.2, -1.0), (2.0, 1.0, -1.0), (-0.5, 0.3, -0.6), (1.0, 3.0, -0.6)]
    points += _RP2_ALPHA_BAND
    odd = (math.nan, math.inf, -math.inf)
    for g in (-1.0, -0.6):
        points += [(x, 1.3, g) for x in odd] + [(-0.7, x, g) for x in odd]
        points += [(x, y, g) for x in odd for y in odd]
        root = 2.0 * math.sqrt(-g)
        for k in (-2.0, -0.5, 0.5, 2.0):
            for t in (-2.5, -0.7, 0.4, 1.9):
                points += [
                    (t, g / t + k * BOUNDARY_BAND * (1.0 + 2.0 * abs(g)) / t, g),
                    (t, t - root + k * BOUNDARY_BAND * (1.0 + 2.0 * root), g),
                    (t, -t + k * BOUNDARY_BAND, g),
                    (k * BOUNDARY_BAND, t, g),
                ]
    return points


def _band_params(a, b, g, mirrored):
    """Parameters of invisible-visible (a, b, g), or of a visible-invisible
    point that mirrors to (a/s, b/s, -1) ~ (a, b, g), s = sqrt(-g)."""
    if mirrored:
        s = math.sqrt(-g)
        return make_parameters(2.0 * b / s, -2.0 * a / s, 4.0, 1.0)
    return make_parameters(a, b, g, -1.0)


class TestBoundaryBandDecisions:
    """Inside the boundary band, the region tags and the parabolic verdicts
    agree with rules that evaluate every band before they branch, on
    invisible-visible points and on visible-invisible points that mirror
    to them."""

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_parabolic_points_in_the_band(self, mirrored):
        seen = set()
        for a, b, g in _band_points():
            if math.isfinite(a) and math.isfinite(b):
                params = _band_params(a, b, g, mirrored)
                if mirrored:
                    m = mirror_parameters(params)
                    core = (m.alpha, m.beta, m.gamma)
                else:
                    core = (a, b, g)
                report = report_from_params(params)
                region, verdict = report.region, report.verdict
            else:
                # No record holds a non-finite parameter; the float core,
                # which a mirror that overflows can still reach, decides it.
                with pytest.raises(PreconditionError, match="must be finite"):
                    _band_params(a, b, g, mirrored)
                core = (a, b, g)
                region, verdict, _ = foldfold._parabolic_core(*core)
            reason = verdict.reason
            got = (
                region.value,
                verdict.kind.value,
                reason and reason.kind.value,
                reason and reason.which,
            )
            tag = _band_region(*core)
            assert got == (tag, *_band_reason(*core, tag)), (params, core)
            seen.add(got)
        assert {got[0] for got in seen} == {"RP1", "RP2", "RP3", "RP4", "boundary"}
        assert {got[1:] for got in seen} >= {
            ("unstable", "transversality-failure", "alpha"),
            ("unstable", "transversality-failure", "D"),
            ("boundary-degenerate", None, None),
            ("unstable", "sliding-bifurcation", None),
        }

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_rp2_alpha_band_decides(self, mirrored):
        inside, outside = (
            report_from_params(_band_params(*point, mirrored)) for point in _RP2_ALPHA_BAND
        )
        assert inside.region is SlidingRegionTag.BIFURCATION_BOUNDARY
        assert inside.verdict.kind is VerdictKind.BOUNDARY_DEGENERATE
        assert outside.region is SlidingRegionTag.RP2


class TestOpenness:
    def test_stable_verdicts_survive_small_perturbations(self):
        from foldatlas.checks import _draw_any_foldfold

        rng = np.random.default_rng(17)
        checked = 0
        while checked < 300:
            params = _draw_any_foldfold(rng)
            base = report_from_params(params).verdict
            if base.kind is not VerdictKind.STABLE:
                continue
            checked += 1
            for _ in range(5):
                eps = rng.uniform(-1e-6, 1e-6, size=3)
                wiggled = make_parameters(
                    params.alpha + eps[0],
                    params.beta + eps[1],
                    params.gamma + eps[2],
                    params.delta,
                )
                moved = report_from_params(wiggled).verdict
                assert moved.kind is VerdictKind.STABLE
                assert moved.class_descriptor == base.class_descriptor


class TestSystemLevelVerdicts:
    def test_crossing_point(self):
        system = build_normal_form(-2.0, -1.0, 1.0, -1.0)
        v = surface_point_report(system, (1.0, -1.0, 0.0)).verdict
        assert v.kind is VerdictKind.STABLE
        assert "crossing" in v.class_descriptor

    def test_regular_sliding_point(self):
        system = build_normal_form(-2.0, -1.0, 1.0, -1.0)
        v = surface_point_report(system, (1.0, 1.0, 0.0)).verdict
        assert v.kind is VerdictKind.STABLE
        assert "regular-sliding" in v.class_descriptor

    def test_fold_regular_stable(self):
        system = build_normal_form(-2.0, -1.0, 1.0, -1.0)
        v = surface_point_report(system, (0.5, 0.0, 0.0)).verdict
        assert v.kind is VerdictKind.STABLE
        assert "tangential" in v.class_descriptor

    @staticmethod
    def _pseudo_equilibrium_system(cx, cy):
        """X = (cx, cy, -1), Y = (0, 0, 1): the plane is stable sliding and the
        normalized sliding field is (cx, cy), zero at the origin."""
        X = VectorField3(Poly3(cx), Poly3(cy), Poly3.constant(-1.0))
        Y = VectorField3(Poly3.zero(), Poly3.zero(), Poly3.constant(1.0))
        return PiecewiseSystem(X, Y)

    # (cx, cy) -> descriptor tail of a hyperbolic pseudo-equilibrium, or the
    # trace and determinant a non-hyperbolic one reports
    PSEUDO_EQUILIBRIA = {
        "unstable-node": ({(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}, (1, 1)),
        "saddle": ({(1, 0, 0): 1.0}, {(0, 1, 0): -1.0}, (-1, 0)),
        "stable-focus": ({(1, 0, 0): -1.0, (0, 1, 0): 1.0},
                         {(1, 0, 0): -1.0, (0, 1, 0): -1.0}, (1, -1)),
        "centre": ({(0, 1, 0): 1.0}, {(1, 0, 0): -1.0}, "trace 0.0, determinant 0.25"),
        "zero-determinant": ({(1, 0, 0): 1.0}, {}, "trace 0.5, determinant 0.0"),
    }

    @pytest.mark.parametrize("case", sorted(PSEUDO_EQUILIBRIA))
    def test_pseudo_equilibrium(self, case):
        # the sliding field is (cx, cy) / 2 at the origin, a zero of it
        cx, cy, expected = self.PSEUDO_EQUILIBRIA[case]
        system = self._pseudo_equilibrium_system(cx, cy)
        v = surface_point_report(system, (0.0, 0.0, 0.0)).verdict
        if isinstance(expected, tuple):
            assert v.kind is VerdictKind.STABLE
            assert v.class_descriptor == (
                "regular-regular", "stable-sliding", "hyperbolic-pseudo-equilibrium",
                *expected,
            )
        else:
            assert v.kind is VerdictKind.UNSTABLE
            assert v.reason.kind is InstabilityReason.SLIDING_BIFURCATION
            assert v.reason.detail == (
                f"non-hyperbolic pseudo-equilibrium ({expected})"
            )

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
    def test_nan_jacobian_entry_counts_as_hyperbolic(self, monkeypatch, entry):
        # A NaN off-diagonal entry at the centre leaves its trace 0; the NaN
        # size, not the trace, makes the point count as hyperbolic.
        exact = sliding.PlanarField.jacobian_at

        def with_nan(fld, x, y):
            rows = [list(row) for row in exact(fld, x, y)]
            rows[entry[0]][entry[1]] = math.nan
            return tuple(map(tuple, rows))

        monkeypatch.setattr(sliding.PlanarField, "jacobian_at", with_nan)
        system = self._pseudo_equilibrium_system(*self.PSEUDO_EQUILIBRIA["centre"][:2])
        v = surface_point_report(system, (0.0, 0.0, 0.0)).verdict
        assert v.kind is VerdictKind.STABLE
        assert v.class_descriptor == (
            "regular-regular", "stable-sliding", "hyperbolic-pseudo-equilibrium", 1, 0
        )

    def test_t_singularity_through_system(self):
        system = build_normal_form(-2.0, -1.0, 1.0, -1.0)
        v = surface_point_report(system, (0.0, 0.0, 0.0)).verdict
        assert v.kind is VerdictKind.STABLE

    def test_two_fold_classified_in_one_pass(self, call_counts, ci_normal_form):
        # One sign table, one tangency refinement, one gradient determinant,
        # and no polynomial evaluated twice: Xf and Yf (the z-components of
        # X and Y), the other four components, X2f, Y2f, XYf and YXf.
        counts = call_counts(sigma, "classify_point", "_refine_tangency", "_gradient_det")
        call_counts(Poly3, "eval")
        result = surface_point_report(ci_normal_form, (0.0, 0.0, 0.0))
        assert result.foldfold.params.subtype is FoldFoldSubtype.INVISIBLE
        assert counts["classify_point"] == 1
        assert counts["_refine_tangency"] == 1
        assert counts["_gradient_det"] == 1
        assert counts["eval"] == 10

    def test_second_derivatives_evaluated_once(self, monkeypatch, ci_normal_form):
        # the normal parameters read X2f and Y2f as the tangency refinement
        # evaluated them
        system = ci_normal_form
        evaluated = []
        real = Poly3.eval

        def record(p, x, y, z):
            evaluated.append(p)
            return real(p, x, y, z)

        monkeypatch.setattr(Poly3, "eval", record)
        result = surface_point_report(system, (0.0, 0.0, 0.0))
        assert result.foldfold.params.subtype is FoldFoldSubtype.INVISIBLE
        for p in (system.x2f, system.y2f, system.xyf, system.yxf):
            assert sum(q is p for q in evaluated) == 1

    def test_two_fold_builds_four_lie_derivatives_and_no_partial(
        self, call_counts, ci_normal_form
    ):
        # X2f, Y2f, XYf and YXf, each built once and cached; the gradient
        # determinant reads Xf and Yf's terms, so no partial is built.
        system = ci_normal_form
        counts = call_counts(algebra, "lie_derivative")
        call_counts(Poly3, "partial")
        for _ in range(2):
            assert surface_point_report(system, (0.0, 0.0, 0.0)).foldfold is not None
            assert counts["lie_derivative"] == 4
            assert counts["partial"] == 0
        assert all(isinstance(vars(PiecewiseSystem)[name], lazy)
                   for name in ("x2f", "y2f", "x3f", "y3f", "xyf", "yxf", "_reversed"))
        assert system.x2f is system.x2f and system.y2f is vars(system)["y2f"]
        assert system.time_reversed() is system.time_reversed()
        report = report_from_params(make_parameters(0.9, 0.7, 1.7, -1.0))
        assert isinstance(vars(foldfold.FoldFoldReport)["moduli"], lazy)
        assert report.moduli is not None and report.moduli is vars(report)["moduli"]

    @pytest.mark.parametrize("subtype", list(_SUBTYPE_SIGNS))
    def test_foldfold_report_reads_the_surface_report(self, subtype):
        d, sg = _SUBTYPE_SIGNS[subtype]
        system = build_normal_form(0.3, 0.5, sg, d)
        got = foldfold_report(system, (0.0, 0.0, 0.0))
        want = surface_point_report(system, (0.0, 0.0, 0.0)).foldfold
        assert got.params.subtype is subtype
        assert (got.params, got.region, got.verdict) == (want.params, want.region, want.verdict)
        if subtype is FoldFoldSubtype.INVISIBLE:
            assert np.array_equal(got.analysis.matrix, want.analysis.matrix)
            assert got.analysis.fixed_point_class is want.analysis.fixed_point_class
        else:
            assert got.analysis is want.analysis is None

    @pytest.mark.parametrize("point,named", [
        ((0.3, 0.0, 0.0), "tangency type is fold-regular"),
        ((0.5, -0.5, 0.0), "kind is crossing"),
        ((0.0, 0.0, 0.5), "not on the switching plane"),
    ])
    def test_foldfold_report_off_two_folds(self, ci_normal_form, point, named):
        with pytest.raises(PreconditionError, match=named):
            foldfold_report(ci_normal_form, point)

    def test_report_aggregation(self):
        report = report_from_params(make_parameters(-2.0, -1.0, 1.0, -1.0))
        assert report.region is SlidingRegionTag.RE1
        assert report.region.claim.value == 1
        assert report.verdict.kind is VerdictKind.STABLE
        assert report.analysis.trace == pytest.approx(6.0)


class TestConnectionRegion:
    """Orbits of the invisible fold connect the two sliding regions precisely
    when its involution carries the visible tangency line into sliding, which
    for invisible-visible parameters is when alpha > 0 (the sign the parabolic
    verdict's class descriptor carries)."""

    @staticmethod
    def _image_kinds(alpha, beta, gamma, delta):
        """Sigma kinds of the invisible fold's images of two points on the
        visible fold's tangency line, one on each side of the two-fold."""
        system = build_normal_form(alpha, beta, gamma, delta)
        side = "X" if delta < 0 else "Y"  # the invisible fold
        kinds = set()
        for t in (0.05, -0.05):
            q = (0.0, t) if side == "X" else (t, 0.0)
            x, y = fold_map_numeric(system, side, q)
            kinds.add(classify_point(system, (x, y, 0.0)).kind)
        return kinds

    def test_exists(self):
        kinds = self._image_kinds(1.0, 1.0, -1.0, -1.0)
        assert kinds == {SigmaKind.STABLE_SLIDING, SigmaKind.UNSTABLE_SLIDING}
        # the image line points along (-2 alpha, -1)
        x, y = fold_map_numeric(build_normal_form(1.0, 1.0, -1.0, -1.0), "X", (0.0, 0.05))
        assert (x, y) == pytest.approx((-0.1, -0.05), abs=1e-9)

    def test_not_exists(self):
        assert self._image_kinds(-1.0, 1.0, -1.0, -1.0) == {SigmaKind.CROSSING}

    def test_degenerate(self):
        # alpha = 0: the image stays on the visible tangency line
        assert self._image_kinds(0.0, 1.0, -1.0, -1.0) == {SigmaKind.TANGENCY}

    def test_mirrored_input(self):
        # visible-invisible: connections iff beta < 0, i.e. mirrored alpha > 0
        connected = make_parameters(1.0, -2.0, 1.0, 1.0)
        assert mirror_parameters(connected).alpha > 0.0
        assert SigmaKind.STABLE_SLIDING in self._image_kinds(1.0, -2.0, 1.0, 1.0)
        apart = make_parameters(1.0, 2.0, 1.0, 1.0)
        assert mirror_parameters(apart).alpha < 0.0
        assert self._image_kinds(1.0, 2.0, 1.0, 1.0) == {SigmaKind.CROSSING}
        assert report_from_params(apart).verdict.class_descriptor[2] == -1

    def test_wrong_subtype(self):
        # a visible-visible two-fold has no involution to carry the line
        system = build_normal_form(1.0, -1.0, -1.0, 1.0)
        with pytest.raises(IntegrationFailure):
            fold_map_numeric(system, "X", (0.0, 0.05))
        with pytest.raises(PreconditionError):
            parabolic_transversality(make_parameters(-1.0, -1.0, 1.0, -1.0))


class TestParabolicTransversality:
    def test_examples(self):
        c = parabolic_transversality(make_parameters(1.0, 1.0, -1.0, -1.0))
        assert c.D_coeff == pytest.approx(-8.0)
        assert c.T_coeff == pytest.approx(5.0)
        c = parabolic_transversality(make_parameters(1.0, -1.0, -1.0, -1.0))
        assert c.D_coeff == pytest.approx(0.0)
        c = parabolic_transversality(make_parameters(-1.0, 1.5, -1.0, -1.0))
        assert c.T_coeff == pytest.approx(0.0)

    def test_visible_invisible_reads_its_mirror(self):
        params = make_parameters(1.0, -2.0, 4.0, 1.0)
        c = parabolic_transversality(params)
        assert c == parabolic_transversality(mirror_parameters(params))
        assert (c.D_coeff, c.T_coeff) == (-4.5, 4.0)


class TestNumericDiagnostics:
    """The seed loop of criterion 8 on one stable T-singularity."""

    SYSTEM = (-2.0, -1.0, 1.0, -1.0)

    @classmethod
    def _iterate(cls, n_seeds=10):
        rng = np.random.default_rng(1)
        # (-, -) is unstable sliding of every normal form with delta = -1
        seeds = [(-rng.uniform(0.01, 0.1), -rng.uniform(0.01, 0.1)) for _ in range(n_seeds)]
        report = checks.DiaboloReport()
        checks._iterate_seeds(build_normal_form(*cls.SYSTEM), seeds, report)
        return report

    @staticmethod
    def _outcomes(report):
        """Seeds with a recorded end: each seed has exactly one."""
        return (
            report.escaped + report.exhausted + report.violations
            + sum(report.failed.values())
        )

    def test_diabolo_pass(self):
        analysis = return_map_analysis(make_parameters(*self.SYSTEM))
        assert analysis.location_contracting is EigvecLocation.IN_CROSSING
        assert analysis.location_expanding is EigvecLocation.IN_CROSSING
        system = build_normal_form(*self.SYSTEM)
        assert checks._reversal_residual(system, analysis) <= 1e-3
        report = self._iterate()
        assert report.violations == 0
        assert self._outcomes(report) == len(report.iterations) == 10
        assert 0 <= max(report.iterations) <= 200

    def test_diabolo_landing_in_stable_sliding_is_a_violation(self, monkeypatch):
        # (0.5, 0.5) has Xf = -y < 0 < Yf = x: stable sliding
        monkeypatch.setattr(checks, "return_map_numeric", lambda s, q: (0.5, 0.5))
        report = self._iterate()
        assert report.violations == len(report.iterations) == 10
        assert report.iterations == [1] * 10

    def test_diabolo_failed_flights_by_status(self, monkeypatch):
        def time_out(system, q):
            raise IntegrationFailure(FlightStatus.TIME_OUT)

        monkeypatch.setattr(checks, "return_map_numeric", time_out)
        report = self._iterate()
        assert report.failed == {FlightStatus.TIME_OUT: 10}
        assert self._outcomes(report) == len(report.iterations) == 10
        assert report.iterations == [0] * 10


class TestRouteIndependence:
    def test_foldfold_imports_nothing_from_integrator(self):
        # The closed-form route must not reach the numeric one it is checked
        # against.
        with open(foldfold.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert ".sigma" in imported
        assert not {".integrator", "integrator", "foldatlas.integrator"} & imported

    def test_sliding_imports_only_algebra(self):
        # The region predicates take plain numbers; reading a two-fold's
        # record, its subtype and its mirror is foldfold's alone.
        with open(sliding.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        package = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or "foldatlas" in (node.module or "")):
                package.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                package.update(a.name for a in node.names if a.name.startswith("foldatlas"))
        assert package == {".algebra"}


def _shared_verdicts():
    """Every module-level verdict of ``foldfold``: the named constants and
    the values of its verdict tables."""
    named = [v for v in vars(foldfold).values() if isinstance(v, StabilityVerdict)]
    return [*named, *foldfold._STABLE.values(), *foldfold._TRANSVERSALITY_FAILURES.values()]


class TestSweepLabelText:
    # The sweep writes these texts; restated here from each label's values.
    def test_each_region_text(self):
        for tag in SlidingRegionTag:
            assert tag._csv == f"{tag.value},{tag.claim.value},", tag

    def test_each_shared_verdict_text(self):
        verdicts = _shared_verdicts()
        for verdict in (foldfold._UNIT_EIGENVALUE, foldfold._EIGENVECTOR_ON_TANGENCY,
                        foldfold._SLIDING_NODE_BOUNDARY, foldfold._REGION_BOUNDARY,
                        foldfold._TRANSVERSALITY_FAILURES["T"]):
            assert any(v is verdict for v in verdicts)
        assert len({id(v) for v in verdicts}) == len(verdicts) == 54
        for verdict in verdicts:
            reason = verdict.reason.kind.value if verdict.reason else ""
            assert verdict._csv == f",{verdict.kind.value},{reason},", verdict

    def test_verdict_text_is_no_field(self):
        verdict = foldfold._TRANSVERSALITY_FAILURES["D"]
        before = dataclasses.asdict(verdict)
        assert verdict._csv == ",unstable,transversality-failure,"
        assert dataclasses.asdict(verdict) == before and "_csv" not in before
        assert "_csv" in vars(verdict)  # formatted once, then read from the instance


def _descriptor_verdict(a, b, g):
    """Parabolic verdict of invisible-visible floats by the descriptor lookup
    that ``_PARABOLIC_STABLE`` replaced: the oracle of the table."""
    cell = parabolic_cell(a, b, g)
    if cell is None:
        return foldfold._NO_GENERIC_REGION
    if cell is SlidingRegionTag.BIFURCATION_BOUNDARY:
        return foldfold._REGION_BOUNDARY
    t_coeff = 2.0 * a * (a + b) - g
    if near(a, 0.0):
        return foldfold._TRANSVERSALITY_FAILURES["alpha"]
    if near(t_coeff, 0.0):
        return foldfold._TRANSVERSALITY_FAILURES["T"]
    if a > 0.0 and near(a + b, 0.0):
        return foldfold._TRANSVERSALITY_FAILURES["D"]
    sign = foldfold._sign
    return foldfold._STABLE["parabolic-two-fold", cell.value, sign(a), sign(a + b),
                            sign(t_coeff)]


def _parabolic_edge_points():
    """Invisible-visible (a, b, g) with alpha = +-0.0, alpha + beta = 0
    exactly, and alpha, alpha + beta and T at 0.5 and 2 band widths from 0."""
    points = []
    for g in (-1.0, -0.5, -2.0, -0.37):
        for t in (-2.5, -1.0, -0.4, 0.7, 1.5, 3.0):
            points += [(0.0, t, g), (-0.0, t, g), (t, -t, g), (-0.0, -0.0, g)]
            for k in (-2.0, -0.5, 0.5, 2.0):
                width = k * BOUNDARY_BAND
                points += [(width, t, g), (t, -t + width, g),
                           (t, (width + g) / (2.0 * t) - t, g)]  # T = width, to rounding
    return points


class TestParabolicStableTable:
    """A parabolic core reads its stable verdict from ``_PARABOLIC_STABLE``:
    the same shared object as the descriptor lookup into ``_STABLE``."""

    def test_each_entry_is_the_shared_verdict(self):
        table = foldfold._PARABOLIC_STABLE
        stable = [v for d, v in foldfold._STABLE.items() if d[0] == "parabolic-two-fold"]
        assert len(table) == len(stable) == 32
        for (cell, a_pos, ab_pos, t_pos), verdict in table.items():
            assert any(verdict is v for v in stable)
            assert verdict.class_descriptor == (
                "parabolic-two-fold", cell, *(1 if pos else -1 for pos in (a_pos, ab_pos, t_pos)))

    @staticmethod
    def _check(points):
        """The verdict of each invisible-visible point, and of the
        visible-invisible point that mirrors to it exactly where g = -1, is
        the oracle's object; returns the points whose verdict is stable."""
        stable = []
        for a, b, g in points:
            got = foldfold._parabolic_core(a, b, g)[1]
            assert got is _descriptor_verdict(a, b, g), (a, b, g)
            assert report_from_params(make_parameters(a, b, g, -1.0)).verdict is got
            if g == -1.0:
                params = make_parameters(b, -a, 1.0, 1.0)  # mirrors to (a, b, -1)
                m = mirror_parameters(params)
                assert (m.alpha, m.beta) == (a, b)
                assert report_from_params(params).verdict is got
            if got.kind is VerdictKind.STABLE:
                stable.append((a, b, g))
        return stable

    def test_edge_points(self):
        stable = self._check(_parabolic_edge_points())
        assert any(a + b == 0.0 for a, b, _ in stable)
        assert any(0.0 < abs(2.0 * a * (a + b) - g) < 3.0 * BOUNDARY_BAND for a, b, g in stable)
        assert any(0.0 < abs(a) < 3.0 * BOUNDARY_BAND for a, _, _ in stable)
        assert any(0.0 < abs(a + b) < 3.0 * BOUNDARY_BAND for a, b, _ in stable)

    def test_seeded_points(self):
        rng = np.random.default_rng(43)
        points = [(float(a), float(b), g) for a, b in rng.uniform(-3.0, 3.0, size=(3000, 2))
                  for g in (-float(rng.uniform(0.1, 3.0)), -1.0)]
        stable = self._check(points)
        cells = {foldfold._parabolic_core(*p)[1].class_descriptor[1] for p in stable}
        assert cells == {"RP1", "RP2", "RP3", "RP4"}


def _sign_keyed_verdict(a, b, g):
    """T-singularity verdict by the ``_sign``-keyed lookup into ``_STABLE``
    that ``_SADDLE_STABLE`` replaced: the oracle of the table."""
    analysis = return_map_analysis(make_parameters(a, b, g, -1.0))
    cls = analysis.fixed_point_class
    if cls is not FixedPointClass.SADDLE:
        return {FixedPointClass.NONHYPERBOLIC_UNIT: foldfold._UNIT_EIGENVALUE,
                FixedPointClass.PARABOLIC_BOUNDARY: foldfold._DOUBLE_MINUS_ONE,
                FixedPointClass.NONHYPERBOLIC_COMPLEX: foldfold._COMPLEX_PAIR}[cls]
    locations = {analysis.location_contracting, analysis.location_expanding}
    if locations == {EigvecLocation.IN_CROSSING}:
        sign = foldfold._sign
        return foldfold._STABLE["T-singularity", "saddle-with-crossing-manifolds",
                                sign(a), sign(b)]
    if EigvecLocation.ON_TANGENCY in locations:
        return foldfold._EIGENVECTOR_ON_TANGENCY
    return foldfold._MANIFOLD_IN_SLIDING


def _saddle_edge_points():
    """Invisible (a, b, g) with alpha or beta = +-0.0 or at 0.5 and 2 band
    widths from 0 (also with alpha*beta = 4 gamma), and with alpha*beta at
    0.5 and 2 band widths on either side of gamma."""
    points = []
    for g in (1.0, 0.5, 2.0, 0.37):
        for t in (-2.5, -1.0, -0.4, 0.7, 1.5, 3.0):
            points += [(0.0, t, g), (-0.0, t, g), (t, 0.0, g), (t, -0.0, g)]
            for k in (-2.0, -0.5, 0.5, 2.0):
                width = k * BOUNDARY_BAND
                points += [(width, t, g), (t, width, g), (width, 4.0 * g / width, g),
                           (4.0 * g / width, width, g),
                           (t, g / t * (1.0 + width), g)]  # alpha*beta = gamma (1 + width)
    return points


class TestSaddleStableTable:
    """A T-singularity core reads its stable verdict from ``_SADDLE_STABLE``:
    the same shared object as the ``_sign``-keyed lookup into ``_STABLE``."""

    def test_each_entry_is_the_shared_verdict(self):
        table = foldfold._SADDLE_STABLE
        assert len(table) == 4
        for (a_pos, b_pos), verdict in table.items():
            sa, sb = (1 if pos else -1 for pos in (a_pos, b_pos))
            assert verdict is foldfold._STABLE[
                "T-singularity", "saddle-with-crossing-manifolds", sa, sb]

    @staticmethod
    def _check(points):
        """Each point's verdict is the oracle's object, from the core and
        from the report; returns the points whose verdict is stable."""
        stable = []
        for a, b, g in points:
            got = foldfold._invisible_core(a, b, g)[1]
            assert got is _sign_keyed_verdict(a, b, g), (a, b, g)
            assert report_from_params(make_parameters(a, b, g, -1.0)).verdict is got
            if got.kind is VerdictKind.STABLE:
                stable.append((a, b, g))
        return stable

    def test_edge_points(self):
        points = _saddle_edge_points()
        stable = self._check(points)
        # alpha or beta = 0 is the trace -2 boundary, never a saddle
        assert all(foldfold._invisible_core(a, b, g)[1] is foldfold._DOUBLE_MINUS_ONE
                   for a, b, g in points if a == 0.0 or b == 0.0)
        # near alpha = 0 or beta = 0 a saddle eigenvector nears the tangency
        # set, so the stable edge points lie just past alpha*beta = gamma
        assert stable
        assert all(0.0 < a * b - g < 3.0 * BOUNDARY_BAND * g for a, b, g in stable)

    def test_seeded_points(self):
        rng = np.random.default_rng(46)
        points = [(float(a), float(b), g) for a, b in rng.uniform(-3.0, 3.0, size=(3000, 2))
                  for g in (float(rng.uniform(0.2, 3.0)), 1.0)]
        stable = self._check(points)
        # a stable saddle lies in RE1, where alpha and beta are negative
        signs = {foldfold._invisible_core(*p)[1].class_descriptor[2:] for p in stable}
        assert signs == {(-1, -1)}


class TestReportOnlyAnalysis:
    """Only reports wrap a core's return-map tuple in a ``ReturnMapAnalysis``;
    a sweep row reads the tuple and builds none."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return ReturnMapAnalysis(*args)

        monkeypatch.setattr(foldfold, "ReturnMapAnalysis", counted)
        return built

    def test_sweep_builds_none(self, built):
        text = cli.run_sweep(cli.SweepSpec((-3.0, 3.0, 21), (-3.0, 3.0, 21), 1.3, -1.0))
        classes = {line.split(",")[6] for line in text.splitlines()[1:]}
        assert {"saddle", "nonhyperbolic-complex"} <= classes
        assert built == []

    @pytest.mark.parametrize("a,b,g", [(-2.0, -1.0, 1.0), (1.0, 1.0, 2.0), (0.0, 1.0, 1.0)])
    def test_each_report_builds_one(self, built, a, b, g):
        params = make_parameters(a, b, g, -1.0)
        report = report_from_params(params)
        assert len(built) == 1 and isinstance(report.analysis, ReturnMapAnalysis)
        analysis = return_map_analysis(params)
        assert len(built) == 2 and analysis == report.analysis
        report_from_params(make_parameters(a, b, -g, -1.0))  # parabolic: no return map
        assert len(built) == 2


class TestFloatRange:
    """Normal parameters whose closed-form intermediates could overflow are
    refused where they are built; inside the bound every intermediate is
    finite."""

    @pytest.mark.parametrize("args", [
        (1, 1, 5e-324, -1),  # 2*beta/gamma = inf: a saddle read as the unit-eigenvalue boundary
        (1e300, 1e300, 1e-300, 1),  # the mirror's alpha is inf
        (1.0, 2.0, 1e-300, -1.0),  # the saddle's trace squared is inf
        (1.0, 2.0, -1e-300, 1.0),
        (2e150, 0.0, 1.0, 1.0),
        (0.0, 1.0, 2e300, 1.0),
    ])
    def test_overflowing_inputs_rejected(self, args):
        with pytest.raises(PreconditionError, match="float range"):
            make_parameters(*args)

    @pytest.mark.parametrize("subtype", list(_SUBTYPE_SIGNS))
    def test_power_of_two_rescaling_to_the_bound(self, subtype):
        # e = 2^k scales (a, b, g) -> (e a, e b, e^2 g) without rounding, so
        # the region, the fixed-point class and the verdict up to |alpha|,
        # |beta| near 1e150 are the unit-scale report's.  e < 1 is left out:
        # the band's absolute floor puts small enough parameters on a boundary.
        d, sg = _SUBTYPE_SIGNS[subtype]
        rng = np.random.default_rng(44)
        for _ in range(200):
            a, b = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
            g = sg * float(rng.uniform(0.2, 3.0))
            base = report_from_params(make_parameters(a, b, g, d))
            for k in (250, 496):
                e = math.ldexp(1.0, k)
                report = report_from_params(make_parameters(e * a, e * b, e * e * g, d))
                assert report.region is base.region
                assert report.verdict is base.verdict
                if base.analysis is not None:
                    assert report.analysis.fixed_point_class is base.analysis.fixed_point_class
                    assert all(math.isfinite(abs(v)) for v in report.analysis.eigenvalues)

    def test_saddle_verdicts_keep_their_object_to_the_bound(self):
        # The eigenvector location is tested on (x / sqrt(gamma), y), which
        # the rescaling leaves fixed; it stretches the (x, y) chart's axes by
        # e and 1/e, enough to move an eigenvector into the band around them.
        rng = np.random.default_rng(45)
        seen = set()
        for _ in range(300):
            a, b = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
            g = float(rng.uniform(0.2, 3.0))
            base = report_from_params(make_parameters(a, b, g, -1.0))
            if base.analysis.fixed_point_class is not FixedPointClass.SADDLE:
                continue
            seen.add(base.verdict)
            for k in (*range(1, 490, 24), 490):
                e = math.ldexp(1.0, k)
                scaled = make_parameters(e * a, e * b, e * e * g, -1.0)
                assert report_from_params(scaled).verdict is base.verdict, (a, b, g, k)
        assert foldfold._MANIFOLD_IN_SLIDING in seen
        assert foldfold._SADDLE_STABLE[False, False] in seen
        base = report_from_params(make_parameters(-2.0, -1.0, 1.0, -1.0)).verdict
        assert base.kind is VerdictKind.STABLE
        for e in (1e3, 1e6, 1e9, 1e18):  # from 1e9 the (x, y) chart puts v on the band
            assert report_from_params(make_parameters(-2 * e, -e, e * e, -1)).verdict is base

    @pytest.mark.parametrize("subtype", list(_SUBTYPE_SIGNS))
    def test_largest_ratio_keeps_the_core_finite(self, subtype):
        # alpha^2 = beta^2 = 1e150 * |gamma| at |gamma| from subnormal to 1e300
        d, sg = _SUBTYPE_SIGNS[subtype]
        for g in (5e-324, 1e-310, 1e-200, 1e-100, 1.0, 1e100, 1e300):
            m = min(1e150, math.sqrt(1e150 * g))
            while m * m > 1e150 * g:
                m = math.nextafter(m, 0.0)
            for a, b in ((m, m), (-m, m), (m, -m), (-m, -m), (m, 0.5 * m)):
                report = report_from_params(make_parameters(a, b, sg * g, d))
                if report.analysis is not None:
                    an = report.analysis
                    values = (an.trace, an.det, *an.eigenvalues,
                              *(an.v_contracting or ()), *(an.v_expanding or ()))
                    assert all(math.isfinite(abs(v)) for v in values), (a, b, g)
                    if m * m > 1e149 * g:  # trace about 4e150: its square is read
                        assert an.fixed_point_class is FixedPointClass.SADDLE
                elif subtype is FoldFoldSubtype.VISIBLE_INVISIBLE:
                    m_params = mirror_parameters(make_parameters(a, b, sg * g, d))
                    assert math.isfinite(m_params.alpha) and math.isfinite(m_params.beta)


class TestHotPathMembers:
    # The closed-form two-fold path reads the Enum members it returns and
    # compares against from private module constants: on Python 3.11 a
    # class-attribute read of a member runs EnumType.__getattr__'s hook.
    HOT = {
        sliding: ("classify_elliptic_region", "classify_hyperbolic_region", "parabolic_cell"),
        foldfold: ("_locate", "_return_map", "_analysis", "_tsingularity_verdict",
                   "_visible_verdict", "_parabolic_region", "_parabolic_core"),
        cli: ("run_sweep",),
    }

    def test_each_constant_is_the_member_it_names(self):
        # Constants bound by unpacking a class follow its order; a reordered
        # enum must fail here instead of relabelling regions silently.
        boundary = SlidingRegionTag.BIFURCATION_BOUNDARY
        for member in SlidingRegionTag:
            if member is not boundary:
                assert getattr(sliding, "_" + member.name) is member, member
        for member in (*FixedPointClass, *EigvecLocation):
            assert getattr(foldfold, "_" + member.name) is member, member
        assert sliding._BOUNDARY is boundary and foldfold._BOUNDARY is boundary

    def test_hot_functions_read_no_member_through_the_class(self):
        enums = {"SlidingRegionTag", "FixedPointClass", "EigvecLocation"}
        for module, names in self.HOT.items():
            with open(module.__file__, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            functions = {node.name: node for node in tree.body
                         if isinstance(node, ast.FunctionDef)}
            for name in names:
                reads = [ast.unparse(node) for node in ast.walk(functions[name])
                         if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                         and node.value.id in enums]
                assert not reads, (module.__name__, name, reads)
