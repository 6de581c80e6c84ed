"""Model definition, ingestion and validation of piecewise-smooth systems.

A system is a pair Z = (X, Y) of polynomial vector fields: X governs the
upper half-space M+ = {z > 0}, Y the lower half-space M- = {z < 0}, and the
switching surface is the plane {z = 0}.  Curved switching surfaces must be
pre-flattened by the caller; with f(x, y, z) = z, 0 is automatically a
regular value of f.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .algebra import (
    MAX_TOTAL_DEGREE,
    VectorField3,
    _degree,
    _new,
    _prune,
    lazy,
    lie_derivative,
    linspace,
)
from .errors import (
    BoxRangeError,
    DegreeCapExceededError,
    EmptyBoxError,
    MalformedDocumentError,
    NonFiniteCoefficientError,
    PreconditionError,
)

#: Maximum total degree accepted for input field components.
INPUT_DEGREE_CAP = 8

_COMPONENT_KEYS = ("cx", "cy", "cz")


def _json_number(value):
    """``value`` as a float (inf for an integer beyond the float range), or
    None when it is not a number; booleans and strings are not numbers."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Box:
    """Axis-aligned analysis window in R^3."""

    xmin: float = -1.0
    xmax: float = 1.0
    ymin: float = -1.0
    ymax: float = 1.0
    zmin: float = -1.0
    zmax: float = 1.0

    @classmethod
    def from_sequence(cls, seq):
        vals = [_json_number(v) for v in seq]
        if len(vals) != 6 or not all(v is not None and math.isfinite(v) for v in vals):
            raise MalformedDocumentError("box must be six finite numbers")
        return cls(*vals)

    def as_tuple(self):
        return (self.xmin, self.xmax, self.ymin, self.ymax, self.zmin, self.zmax)

    def volume(self):
        return (
            max(self.xmax - self.xmin, 0.0)
            * max(self.ymax - self.ymin, 0.0)
            * max(self.zmax - self.zmin, 0.0)
        )

    def sigma_area(self):
        """Area of the slice {z = 0} inside the box (0 if the box misses it)."""
        if self.zmin > 0.0 or self.zmax < 0.0:
            return 0.0
        return max(self.xmax - self.xmin, 0.0) * max(self.ymax - self.ymin, 0.0)

    def scale(self):
        return max(
            self.xmax - self.xmin,
            self.ymax - self.ymin,
            self.zmax - self.zmin,
            0.0,
        )

    @lazy
    def flight_guard(self):
        """Half-width of a flight's guard cube: 1.5 longest sides, >= 1.5e-6."""
        return 1.5 * max(self.scale(), 1e-6)

    def contains(self, point, pad=0.0):
        x, y, z = point[0], point[1], point[2]
        return (
            self.xmin - pad <= x <= self.xmax + pad
            and self.ymin - pad <= y <= self.ymax + pad
            and self.zmin - pad <= z <= self.zmax + pad
        )


DEFAULT_BOX = Box()


class PiecewiseSystem:
    """A pair Z = (X, Y) of vector fields split by the plane {z = 0}.

    Immutable after construction; Lie derivatives of the switching function
    and the coefficient scale (``coeff_scale()``, which every default
    tolerance reads) are computed on first read and cached without a lock:
    two concurrent first readers may both compute one, the values are equal
    and one is kept.  Since f = z, the first Lie derivatives are the fields'
    z-components: Xf = X_z, Yf = Y_z.
    """

    def __init__(self, X, Y, box=DEFAULT_BOX, name="system"):
        self.X = X
        self.Y = Y
        self.box = box
        self.name = name

    # First and higher Lie derivatives of f(x,y,z) = z along X and Y.

    @property
    def xf(self):
        return self.X.cz

    @property
    def yf(self):
        return self.Y.cz

    @lazy
    def x2f(self):
        return lie_derivative(self.X, self.xf)

    @lazy
    def y2f(self):
        return lie_derivative(self.Y, self.yf)

    @lazy
    def x3f(self):
        return lie_derivative(self.X, self.x2f)

    @lazy
    def y3f(self):
        return lie_derivative(self.Y, self.y2f)

    @lazy
    def xyf(self):
        """Mixed derivative: d(Yf) along X."""
        return lie_derivative(self.X, self.yf)

    @lazy
    def yxf(self):
        """Mixed derivative: d(Xf) along Y."""
        return lie_derivative(self.Y, self.xf)

    @lazy
    def _scale(self):
        return max(self.X.coeff_scale(), self.Y.coeff_scale())

    def coeff_scale(self):
        return self._scale

    @lazy
    def fold_plans(self):  # the integrator's fold-map plans by side, made on first use
        return {}

    @lazy
    def _reversed(self):
        return PiecewiseSystem(
            self.X.negated(), self.Y.negated(), self.box, self.name + "(reversed)"
        )

    def time_reversed(self):
        """System whose orbits are those of Z run backwards in time (cached,
        so repeated backward trajectories reuse its Lie derivatives and
        compiled evaluators)."""
        return self._reversed

    def __repr__(self):
        return f"PiecewiseSystem({self.name!r})"


# ---------------------------------------------------------------------------
# JSON documents


def _parse_component(entries, where):
    """Poly3 of a component's ``[[i, j, k], coefficient]`` terms.  A term of
    exact ``int`` exponents >= 0 and a ``float`` coefficient is already what
    the checks make of it; any other term (booleans, int coefficients,
    malformed) runs the checks and their errors.  Repeated terms add up, and
    each running sum must be finite."""
    if not isinstance(entries, list):
        raise MalformedDocumentError(f"{where}: expected a list of terms")
    terms = {}
    for entry in entries:
        try:
            exps, coeff = entry
            i, j, k = exps
        except (TypeError, ValueError) as exc:
            raise MalformedDocumentError(f"{where}: bad term {entry!r}") from exc
        # i | j | k is negative exactly when one of the ints is
        if type(coeff) is float and type(i) is type(j) is type(k) is int and i | j | k >= 0:
            c, key = coeff, (i, j, k)
        else:
            for e in (i, j, k):
                if not isinstance(e, int) or e < 0:
                    raise MalformedDocumentError(
                        f"{where}: exponents must be non-negative integers"
                    )
            c = _json_number(coeff)
            if c is None:
                raise MalformedDocumentError(f"{where}: coefficient must be a number")
            # int() stores a boolean exponent as 0 or 1
            key = (int(i), int(j), int(k))
        c = terms.get(key, 0.0) + c  # repeated terms add up, and may overflow
        if not math.isfinite(c):
            raise NonFiniteCoefficientError(f"{where}: non-finite coefficient")
        terms[key] = c
    # Sums that cancel are pruned before the one degree computation, which
    # both caps read: the package-wide cap first, then the input cap.
    terms = _prune(terms)
    deg = _degree(terms)
    if deg > MAX_TOTAL_DEGREE:
        raise DegreeCapExceededError(f"{where}: degree {deg} exceeds cap {MAX_TOTAL_DEGREE}")
    if deg > INPUT_DEGREE_CAP:
        raise DegreeCapExceededError(
            f"{where}: degree {deg} exceeds input cap {INPUT_DEGREE_CAP}"
        )
    return _new(terms)


def _require_usable_box(box):
    if box.volume() <= 0.0:
        raise EmptyBoxError("box has no volume")
    if box.sigma_area() <= 0.0:
        raise EmptyBoxError("box does not contain a slice of {z=0} with area")
    if not math.isfinite(box.scale()):
        raise BoxRangeError("box sides must be shorter than the float range")


def load_system(text):
    """Parse a JSON document into a validated :class:`PiecewiseSystem`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocumentError("document root must be an object")
    missing = {"name", "box", "X", "Y"} - set(doc)
    if missing:
        raise MalformedDocumentError(f"missing keys: {sorted(missing)}")
    if not isinstance(doc["name"], str):
        raise MalformedDocumentError("name must be a string")
    for label in ("X", "Y"):
        if not isinstance(doc[label], dict):
            raise MalformedDocumentError(f"{label} must be an object")
        unknown = sorted(set(doc[label]) - set(_COMPONENT_KEYS))
        if unknown:
            raise MalformedDocumentError(
                f"{label}: unknown component keys {unknown}; expected cx, cy, cz"
            )
    if not isinstance(doc["box"], list):
        raise MalformedDocumentError("box must be a list")
    X, Y = [
        VectorField3(*[
            _parse_component(doc[label].get(key, []), f"{label}.{key}")
            for key in _COMPONENT_KEYS
        ])
        for label in ("X", "Y")
    ]
    box = Box.from_sequence(doc["box"])
    _require_usable_box(box)
    return PiecewiseSystem(X, Y, box, doc["name"])


def serialize_system(system):
    """Inverse of :func:`load_system`; coefficients round-trip bitwise."""
    doc = {"name": system.name, "box": list(system.box.as_tuple())}
    for label, f in (("X", system.X), ("Y", system.Y)):
        doc[label] = {
            key: [[list(e), c] for e, c in poly.items()]
            for key, poly in zip(_COMPONENT_KEYS, f.components())
        }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Normal form builder


def build_normal_form(alpha, beta, gamma, delta, hot=None):
    """Fold-fold normal form with the singularity at the origin.

    X = (alpha, 1, delta*y) and Y = (gamma, beta, x) + optional higher-order
    terms on Y.  ``delta`` must be +-1 (it is the sign of the second
    derivative of z along X at the origin) and ``gamma`` must be nonzero
    (its sign is the sign of the second derivative of z along Y).  Permitted
    higher-order terms vanish at the origin for the first two Y-components
    and to second order for the third.
    """
    a, b, g = float(alpha), float(beta), float(gamma)
    for val, label in ((a, "alpha"), (b, "beta"), (g, "gamma")):
        if not math.isfinite(val):
            raise PreconditionError(f"{label} must be finite")
    if delta not in (-1, 1, -1.0, 1.0):
        raise PreconditionError("delta must be -1 or +1")
    if gamma == 0.0:
        raise PreconditionError("gamma must be nonzero")

    X = VectorField3(
        _new({(0, 0, 0): a} if a else {}),
        _new({(0, 0, 0): 1.0}),
        _new({(0, 1, 0): float(delta)}),
    )
    y_comps = [
        _new({(0, 0, 0): g} if g else {}),
        _new({(0, 0, 0): b} if b else {}),
        _new({(1, 0, 0): 1.0}),
    ]
    if hot:
        min_order = {"cx": 1, "cy": 1, "cz": 2}
        for idx, key in enumerate(_COMPONENT_KEYS):
            entries = hot.get(key)
            if not entries:
                continue
            extra = _parse_component(entries, f"hot.{key}")
            low = min(
                (i + j + k for (i, j, k) in extra.terms), default=min_order[key]
            )
            if low < min_order[key]:
                raise PreconditionError(
                    f"hot.{key}: terms must vanish to order {min_order[key]}"
                )
            y_comps[idx] = y_comps[idx] + extra
    return _NormalForm(X, VectorField3(*y_comps), (alpha, beta, gamma, delta))


class _NormalForm(PiecewiseSystem):
    """A system of ``build_normal_form``, which keeps its four parameters as
    passed and formats its name from them on first read."""

    def __init__(self, X, Y, params):
        self.X, self.Y, self.box, self._params = X, Y, DEFAULT_BOX, params

    @lazy
    def name(self):
        alpha, beta, gamma, delta = self._params
        return f"normal-form(alpha={alpha}, beta={beta}, gamma={gamma}, delta={int(delta)})"


# ---------------------------------------------------------------------------
# Validation


_ZERO_GRID = 21  # seeds per axis of the search for field zeros on {z=0}
_ZERO_TOL = 1e-10  # a zero's residual in each component over 1 + its coefficient scale


def _field_zeros_on_sigma(f, box):
    """Grid-seeded Gauss-Newton search for zeros of a field on {z=0}; each
    step solves the normal equations (J^T J) s = J^T r of the 3x2 Jacobian J."""
    fn = f.compiled()
    jac_fns = [[comp.partial(var).subs_z0().compiled() for var in ("x", "y")]
               for comp in f.components()]
    ys = linspace(box.ymin, box.ymax, _ZERO_GRID)
    found = []
    scale = 1.0 + f.coeff_scale()
    tols = [_ZERO_TOL * (1.0 + comp.coeff_scale()) for comp in f.components()]
    for x0 in linspace(box.xmin, box.xmax, _ZERO_GRID):
        for y0 in ys:
            vx, vy, vz = fn(x0, y0, 0.0)
            norm = math.hypot(vx, math.hypot(vy, vz))
            if norm > 0.2 * scale:
                continue
            x, y = x0, y0
            for _ in range(25):  # to a zero, a singular J^T J or the last step
                r0, r1, r2 = r = fn(x, y, 0.0)
                if all(abs(v) <= tol for v, tol in zip(r, tols)):
                    if box.contains((x, y, 0.0), pad=1e-9) and all(
                            math.hypot(x - px, y - py) > 1e-6 for px, py in found):
                        found.append((x, y))
                    break
                (a0, a1), (b0, b1), (c0, c1) = ([cell(x, y, 0.0) for cell in row]
                                                for row in jac_fns)
                p = a0 * a0 + b0 * b0 + c0 * c0
                q = a0 * a1 + b0 * b1 + c0 * c1
                s = a1 * a1 + b1 * b1 + c1 * c1
                det = p * s - q * q
                if abs(det) < 1e-18:
                    break
                u, v = a0 * r0 + b0 * r1 + c0 * r2, a1 * r0 + b1 * r1 + c1 * r2
                x, y = x - (s * u - q * v) / det, y - (p * v - q * u) / det
    return found


def validate(system):
    """Warnings for a field that vanishes on the switching surface, X first.
    ``system`` comes from ``load_system`` or ``build_normal_form``, whose
    gates raise on every other fault of a document."""
    warnings = []
    for label, f in (("X", system.X), ("Y", system.Y)):
        zeros = _field_zeros_on_sigma(f, system.box)
        if zeros:
            warnings.append(f"{label} vanishes on the switching surface (e.g. at "
                            f"({zeros[0][0]:.6g}, {zeros[0][1]:.6g}, 0))")
    return warnings
