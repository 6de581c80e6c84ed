"""Seeded two-fold systems in general position.

``general_position_system(seed)`` draws a normal form with alpha, beta in
U(-2, 2), |gamma| in U(0.3, 2) of either sign and delta = +-1, and adds
generic x, y, z, x^2, xy, y^2, xz and yz terms, each with a coefficient in
U(-0.15, 0.15), to all six components.  None of them is a constant, so the
two-fold stays at the origin.  It then writes the system in coordinates p'
with p = M p' + (s, 0), M = [[A, c], [0, lam]], A = 2 I + U(-1, 1)^(2x2),
c in U(-0.5, 0.5)^2, lam in U(0.5, 2) and s in U(-0.3, 0.3)^2, which keeps
{z = 0} and its sides, and rescales time by the positive factors
1 + 0.2 (u x + v y) on X and 1 + 0.2 (u y + v z) on Y, with u, v in
U(-1, 1).  Orbits, and so the fold maps and the first-return map, are
conjugate to those of the system before the map; the closed-form route
reads the normal parameters off the transformed system.
"""

import numpy as np

from foldatlas.algebra import Poly3, VectorField3
from foldatlas.system import PiecewiseSystem, build_normal_form

_GENERIC = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1),
            (0, 1, 1))


def _linear(cx, cy, cz, c0=0.0):
    """The Poly3 ``cx x + cy y + cz z + c0``."""
    return Poly3({(1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz, (0, 0, 0): c0})


def _compose(poly, x, y, z):
    """``poly`` with the Poly3s ``x``, ``y`` and ``z`` put for its variables."""
    out = Poly3.zero()
    for (i, j, k), coeff in poly.items():
        term = Poly3.constant(coeff)
        for base, power in ((x, i), (y, j), (z, k)):
            for _ in range(power):
                term = term * base
        out = out + term
    return out


def general_position_system(seed):
    """``(system, two_fold, base)``: the transformed system, its two-fold
    ``(x, y, 0)``, and the system before the map, whose two-fold is the
    origin."""
    rng = np.random.default_rng(seed)
    alpha, beta = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
    gamma = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0))
    delta = float(rng.choice((-1.0, 1.0)))
    normal = build_normal_form(alpha, beta, gamma, delta)
    fields = []
    for field in (normal.X, normal.Y):
        fields.append([comp + Poly3({e: float(rng.uniform(-0.15, 0.15)) for e in _GENERIC})
                       for comp in field.components()])
    a = 2.0 * np.eye(2) + rng.uniform(-1.0, 1.0, size=(2, 2))
    c = rng.uniform(-0.5, 0.5, size=2)
    lam = float(rng.uniform(0.5, 2.0))
    s = rng.uniform(-0.3, 0.3, size=2)
    u, v = (float(w) for w in rng.uniform(-1.0, 1.0, size=2))
    # p = M p' + (s, 0), and the rows of M^-1 = [[A^-1, -A^-1 c / lam], [0, 1 / lam]]
    x = _linear(a[0, 0], a[0, 1], c[0], s[0])
    y = _linear(a[1, 0], a[1, 1], c[1], s[1])
    z = _linear(0.0, 0.0, lam)
    inv = np.linalg.inv(a)
    shift = -inv @ c / lam
    rows = ((inv[0, 0], inv[0, 1], shift[0]), (inv[1, 0], inv[1, 1], shift[1]),
            (0.0, 0.0, 1.0 / lam))
    scales = (_linear(0.2 * u, 0.2 * v, 0.0, 1.0), _linear(0.0, 0.2 * u, 0.2 * v, 1.0))
    transformed = []
    for comps, scale in zip(fields, scales):
        image = [_compose(comp, x, y, z) for comp in comps]
        transformed.append(VectorField3(*(
            (image[0].scaled(r0) + image[1].scaled(r1) + image[2].scaled(r2)) * scale
            for r0, r1, r2 in rows)))
    point = inv @ -s
    return (PiecewiseSystem(*transformed), (float(point[0]), float(point[1]), 0.0),
            PiecewiseSystem(*(VectorField3(*comps) for comps in fields)))
