import json
import math
import random
import sys
import threading

import pytest

from foldatlas.algebra import MAX_TOTAL_DEGREE, Poly3, VectorField3, _degree, _new, _prune
from foldatlas.errors import (
    DegreeCapExceededError,
    EmptyBoxError,
    MalformedDocumentError,
    NonFiniteCoefficientError,
    PreconditionError,
)
from foldatlas.system import (
    INPUT_DEGREE_CAP,
    Box,
    PiecewiseSystem,
    _json_number,
    _parse_component,
    build_normal_form,
    load_system,
    serialize_system,
    validate,
)


def normal_form_doc(alpha=-1.0, beta=-1.0, gamma=1.0, delta=-1.0):
    return json.dumps(
        {
            "name": "elliptic",
            "box": [-1, 1, -1, 1, -1, 1],
            "X": {
                "cx": [[[0, 0, 0], alpha]],
                "cy": [[[0, 0, 0], 1.0]],
                "cz": [[[0, 1, 0], delta]],
            },
            "Y": {
                "cx": [[[0, 0, 0], gamma]],
                "cy": [[[0, 0, 0], beta]],
                "cz": [[[1, 0, 0], 1.0]],
            },
        }
    )


class TestLoadSystem:
    def test_normal_form_descriptor(self):
        system = load_system(normal_form_doc())
        assert system.X.cx == Poly3.constant(-1.0)
        assert system.X.cy == Poly3.constant(1.0)
        assert system.X.cz == Poly3({(0, 1, 0): -1.0})
        assert system.Y.cx == Poly3.constant(1.0)
        assert system.Y.cy == Poly3.constant(-1.0)
        assert system.Y.cz == Poly3({(1, 0, 0): 1.0})

    def test_constant_fields(self):
        doc = json.dumps(
            {
                "name": "const",
                "box": [-1, 1, -1, 1, -1, 1],
                "X": {"cx": [[[0, 0, 0], 1.0]], "cy": [], "cz": [[[0, 0, 0], -1.0]]},
                "Y": {"cx": [], "cy": [[[0, 0, 0], 1.0]], "cz": [[[0, 0, 0], 1.0]]},
            }
        )
        system = load_system(doc)
        assert system.X.eval_at((0.3, 0.4, 0.0)) == (1.0, 0.0, -1.0)
        assert system.Y.eval_at((0.3, 0.4, 0.0)) == (0.0, 1.0, 1.0)

    def test_nan_coefficient_rejected(self):
        doc = normal_form_doc().replace("-1.0", "NaN", 1)
        with pytest.raises(NonFiniteCoefficientError):
            load_system(doc)

    def test_malformed_json(self):
        with pytest.raises(MalformedDocumentError):
            load_system("{not json")

    def test_missing_keys(self):
        with pytest.raises(MalformedDocumentError):
            load_system(json.dumps({"name": "x"}))

    def test_degree_cap(self):
        doc = json.loads(normal_form_doc())
        doc["X"]["cx"] = [[[9, 0, 0], 1.0]]
        with pytest.raises(DegreeCapExceededError):
            load_system(json.dumps(doc))

    def test_empty_box(self):
        doc = json.loads(normal_form_doc())
        doc["box"] = [1, -1, -1, 1, -1, 1]
        with pytest.raises(EmptyBoxError):
            load_system(json.dumps(doc))
        doc["box"] = [-1, 1, -1, 1, 0.5, 1]  # no slice of {z=0}
        with pytest.raises(EmptyBoxError):
            load_system(json.dumps(doc))

    def test_bad_exponent(self):
        doc = json.loads(normal_form_doc())
        doc["X"]["cx"] = [[[-1, 0, 0], 1.0]]
        with pytest.raises(MalformedDocumentError):
            load_system(json.dumps(doc))

    def _with_x_cx(self, terms):
        doc = json.loads(normal_form_doc())
        doc["X"]["cx"] = terms
        return load_system(json.dumps(doc)).X.cx.terms

    def test_duplicate_terms_summed(self):
        terms = self._with_x_cx(
            [[[0, 1, 0], 0.5], [[1, 0, 0], 1.0], [[0, 1, 0], 0.25], [[1, 0, 0], 2.0]]
        )
        # one entry per monomial, where the monomial first appeared
        assert list(terms.items()) == [((0, 1, 0), 0.75), ((1, 0, 0), 3.0)]

    def test_terms_summing_to_zero_dropped(self):
        terms = self._with_x_cx(
            [[[0, 0, 2], 1.5], [[0, 1, 0], 2.0], [[0, 0, 2], -1.5], [[9, 0, 0], 1.0],
             [[9, 0, 0], -1.0]]
        )
        # the dropped degree-9 term does not count against the input cap
        assert terms == {(0, 1, 0): 2.0}

    def test_boolean_exponent_stored_as_int(self):
        terms = self._with_x_cx([[[True, 0, False], 2.0], [[1, 0, 0], 0.5]])
        assert terms == {(1, 0, 0): 2.5}
        assert all(type(e) is int for exps in terms for e in exps)
        assert all(type(c) is float for c in terms.values())

    def test_error_messages(self):
        cases = [
            ([[[30, 0, 0], 1.0]], DegreeCapExceededError, "X.cx: degree 30 exceeds cap 24"),
            ([[[9, 0, 0], 1.0]], DegreeCapExceededError,
             "X.cx: degree 9 exceeds input cap 8"),
            ([[[1, 0, 0], "a"]], MalformedDocumentError, "X.cx: coefficient must be a number"),
            ([[[1, 0, 0], True]], MalformedDocumentError, "X.cx: coefficient must be a number"),
            # a JSON integer beyond the float range, not the float literal 1e400
            ([[[0, 0, 0], 10**400]], NonFiniteCoefficientError,
             "X.cx: non-finite coefficient"),
            ([[[1, 0], 1.0]], MalformedDocumentError, "X.cx: bad term [[1, 0], 1.0]"),
            ([[[1.0, 0, 0], 1.0]], MalformedDocumentError,
             "X.cx: exponents must be non-negative integers"),
            ("x", MalformedDocumentError, "X.cx: expected a list of terms"),
            # the 24 cap is checked before the input cap, on the one degree
            ([[[9, 0, 0], 1.0], [[0, 30, 0], 1.0]], DegreeCapExceededError,
             "X.cx: degree 30 exceeds cap 24"),
            # every term is validated before any degree is computed
            ([[[30, 0, 0], 1.0], [[0, 0, 0], "a"]], MalformedDocumentError,
             "X.cx: coefficient must be a number"),
            ([[[True, 0, 8], 1.0]], DegreeCapExceededError,
             "X.cx: degree 9 exceeds input cap 8"),
        ]
        for terms, cls, message in cases:
            with pytest.raises(cls) as info:
                self._with_x_cx(terms)
            assert type(info.value) is cls
            assert str(info.value) == message

    @pytest.mark.parametrize("terms,want", [
        # zero sums are pruned before either cap is checked
        ([[[30, 0, 0], 1.5], [[0, 1, 0], 2.0], [[30, 0, 0], -1.5]], {(0, 1, 0): 2.0}),
        ([[[0, 0, 30], 1.0], [[0, 0, 30], -1.0]], {}),
        # a bool exponent is stored as 0 or 1 and counts as that in the degree
        ([[[True, False, 7], 0.5]], {(1, 0, 7): 0.5}),
    ])
    def test_one_pass_order(self, terms, want):
        got = self._with_x_cx(terms)
        assert got == want
        assert all(type(e) is int for exps in got for e in exps)

    @pytest.mark.parametrize("entry", [None, "a", True, False, "1", [1], 10**400])
    def test_box_entries_must_be_numbers(self, entry):
        doc = json.loads(normal_form_doc())
        doc["box"][1] = entry
        with pytest.raises(MalformedDocumentError, match="box must be six finite numbers"):
            load_system(json.dumps(doc))

    @pytest.mark.parametrize("key", ["cZ", "cw", "z", ""])
    def test_unknown_component_key_rejected(self, key):
        doc = json.loads(normal_form_doc())
        doc["Y"][key] = [[[0, 0, 0], 1.0]]
        with pytest.raises(MalformedDocumentError, match="Y: unknown component keys"):
            load_system(json.dumps(doc))

    def test_missing_component_key_is_zero(self):
        doc = json.loads(normal_form_doc())
        del doc["X"]["cy"]
        assert load_system(json.dumps(doc)).X.cy == Poly3.zero()

    def test_round_trip_bitwise(self):
        system = load_system(normal_form_doc(alpha=-0.1234567890123456))
        text = serialize_system(system)
        again = load_system(text)
        assert again.X.cx.terms == system.X.cx.terms
        assert serialize_system(again) == text


def _ref_parse_component(entries, where):
    """The checks on every term that ``_parse_component`` matches."""
    if not isinstance(entries, list):
        raise MalformedDocumentError(f"{where}: expected a list of terms")
    terms = {}
    for entry in entries:
        try:
            exps, coeff = entry
            i, j, k = exps
        except (TypeError, ValueError) as exc:
            raise MalformedDocumentError(f"{where}: bad term {entry!r}") from exc
        for e in (i, j, k):
            if not isinstance(e, int) or e < 0:
                raise MalformedDocumentError(
                    f"{where}: exponents must be non-negative integers"
                )
        c = _json_number(coeff)
        if c is None:
            raise MalformedDocumentError(f"{where}: coefficient must be a number")
        if not math.isfinite(c):
            raise NonFiniteCoefficientError(f"{where}: non-finite coefficient")
        key = (int(i), int(j), int(k))
        terms[key] = terms.get(key, 0.0) + c
    terms = _prune(terms)
    deg = _degree(terms)
    if deg > MAX_TOTAL_DEGREE:
        raise DegreeCapExceededError(f"{where}: degree {deg} exceeds cap {MAX_TOTAL_DEGREE}")
    if deg > INPUT_DEGREE_CAP:
        raise DegreeCapExceededError(
            f"{where}: degree {deg} exceeds input cap {INPUT_DEGREE_CAP}"
        )
    return _new(terms)


def _parse_outcome(parse, entries):
    """Keys with their element types and coefficient bits in term order, or
    the error's type and message."""
    try:
        terms = parse(entries, "X.cx").terms
    except (MalformedDocumentError, NonFiniteCoefficientError, DegreeCapExceededError) as exc:
        return type(exc), str(exc)
    return [(k, [type(e) for e in k], type(c), c.hex()) for k, c in terms.items()]


def _random_entry(rng, previous):
    """One term, mostly well formed: exact, boolean, negative or float
    exponents; float, int, boolean, string or null coefficients, an integer
    past the float range, NaN, inf and -0.0; wrong arities; a repeat or the
    negation of an earlier term."""
    if previous and rng.random() < 0.15:
        exps, coeff = rng.choice(previous)
        if type(coeff) is float and rng.random() < 0.7:
            coeff = -coeff  # cancels the earlier term
        return [exps, coeff]
    if rng.random() < 0.04:
        return rng.choice([[[0, 0, 0]], [[0, 0, 0], 1.0, 2.0], None, "ab", 7,
                           [[0, 0], 1.0], [[0, 0, 0, 0], 1.0], [None, 1.0], ["abc", 1.0]])
    exps = []
    for _ in range(3):
        r = rng.random()
        exps.append(rng.randint(0, 3) if r < 0.85 else rng.randint(4, 9) if r < 0.9
                    else rng.choice([True, False, -1, 1.0, 2.5]))
    if rng.random() < 0.1:
        exps = tuple(exps)
    r = rng.random()
    if r < 0.75:
        coeff = rng.choice([rng.uniform(-2.0, 2.0), rng.uniform(-1e-300, 1e-300),
                            float(rng.randint(-3, 3))])
    else:
        coeff = rng.choice([rng.randint(-5, 5), 10**400, -10**400, True, False, "1.0",
                            None, math.nan, math.inf, -math.inf, -0.0, 0.0])
    return [exps, coeff]


class TestParseComponentMatchesReference:
    def test_seeded_term_lists(self):
        rng = random.Random(2034)
        outcomes = set()
        for _ in range(4000):
            entries, pairs = [], []
            for _ in range(rng.randint(0, 6)):
                entries.append(_random_entry(rng, pairs))
                if isinstance(entries[-1], list) and len(entries[-1]) == 2:
                    pairs.append(entries[-1])
            got = _parse_outcome(_parse_component, entries)
            assert got == _parse_outcome(_ref_parse_component, entries), entries
            outcomes.add(got[0] if isinstance(got, tuple) else "terms")
        # every kind of result was reached
        assert outcomes == {"terms", MalformedDocumentError, NonFiniteCoefficientError,
                            DegreeCapExceededError}


class TestBuildNormalForm:
    def test_symbolic_invariants(self):
        for delta in (-1.0, 1.0):
            for gamma in (-2.0, 0.5, 1.0):
                system = build_normal_form(0.7, -1.3, gamma, delta)
                assert system.xf == Poly3({(0, 1, 0): delta})
                residual = system.yf - Poly3.variable("x")
                if not residual.is_zero():
                    assert min(sum(e) for e in residual.terms) >= 2
                assert system.x2f.eval_at((0, 0, 0)) == delta
                assert system.y2f.eval_at((0, 0, 0)) == gamma

    def test_hot_terms_preserve_jet(self):
        hot = {"cx": [[[0, 0, 1], 0.3]], "cy": [[[1, 0, 0], -0.2]], "cz": [[[1, 1, 0], 0.5]]}
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0, hot=hot)
        assert system.y2f.eval_at((0, 0, 0)) == 1.0
        assert system.xyf.eval_at((0, 0, 0)) == -1.0
        assert system.yxf.eval_at((0, 0, 0)) == 1.0

    def test_coeff_scale_is_memoized(self, monkeypatch):
        system = build_normal_form(-0.6, 1.2, 0.8, -1.0, hot={"cz": [[[2, 0, 0], 3.5]]})
        calls = []
        original = VectorField3.coeff_scale
        monkeypatch.setattr(
            VectorField3, "coeff_scale", lambda self: calls.append(self) or original(self)
        )
        for _ in range(3):
            assert system.coeff_scale() == 3.5
        assert calls == [system.X, system.Y]

    def test_time_reversed_is_memoized(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        rev = system.time_reversed()
        assert system.time_reversed() is rev
        assert rev.X is system.X.negated() and rev.Y is system.Y.negated()
        assert rev.xf.compiled() is system.time_reversed().xf.compiled()

    def test_concurrent_first_reads_get_equal_derivatives(self):
        # The derivative cache takes no lock: racing first readers may each
        # build X2f, every one gets an equal value, and one value is kept.
        hot = {"cz": [[[2, 0, 0], 0.3], [[0, 1, 1], 0.1]]}
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                system = build_normal_form(-0.6, 1.2, 0.8, -1.0, hot=hot)
                barrier = threading.Barrier(8)
                seen = []

                def read():
                    barrier.wait(timeout=10)
                    seen.append(system.x2f)

                threads = [threading.Thread(target=read) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert len(seen) == 8 and all(v == seen[0] for v in seen)
                assert system.x2f is vars(system)["x2f"]
                assert any(v is system.x2f for v in seen)
        finally:
            sys.setswitchinterval(old)

    def test_gamma_zero_rejected(self):
        with pytest.raises(PreconditionError):
            build_normal_form(1.0, 1.0, 0.0, -1.0)

    def test_bad_delta(self):
        with pytest.raises(PreconditionError):
            build_normal_form(1.0, 1.0, 1.0, 2.0)

    def test_hot_order_validation(self):
        with pytest.raises(PreconditionError):
            build_normal_form(1.0, 1.0, 1.0, -1.0, hot={"cz": [[[1, 0, 0], 0.1]]})
        with pytest.raises(PreconditionError):
            build_normal_form(1.0, 1.0, 1.0, -1.0, hot={"cx": [[[0, 0, 0], 0.1]]})


class TestValidate:
    def test_clean_normal_form(self):
        report = validate(build_normal_form(-1.0, -1.0, 1.0, -1.0))
        assert report.ok()

    def test_vanishing_field_warning(self):
        X = VectorField3(
            Poly3.variable("x"), Poly3.variable("y"), Poly3.variable("z")
        )
        Y = VectorField3(Poly3.constant(0), Poly3.constant(0), Poly3.constant(1))
        system = PiecewiseSystem(X, Y, name="vanishing")
        report = validate(system)
        assert any("X vanishes" in w for w in report.warnings)
        assert report.vanishing_points["X"]

    def test_newton_step_past_the_float_range(self):
        # |X| <= 0.2 * scale at the grid points, and J^T J is near singular
        # (det 1e-18): the first step jumps to x ~ -1e40, where x**8
        # overflows to inf.  That seed finds no zero.
        X = VectorField3(Poly3({(0, 0, 0): 1e31, (1, 0, 0): 1e-9}),
                         Poly3({(0, 1, 0): 1.0, (8, 0, 0): 1e-300}),
                         Poly3({(0, 0, 1): 1e32, (0, 0, 0): -1.0}))
        Y = VectorField3(Poly3.zero(), Poly3.zero(), Poly3.constant(1.0))
        assert validate(PiecewiseSystem(X, Y)).vanishing_points == {}

    def test_degenerate_box_warning(self):
        system = PiecewiseSystem(
            build_normal_form(-1, -1, 1, -1).X,
            build_normal_form(-1, -1, 1, -1).Y,
            box=Box(-1, 1, -1, 1, 0.0, 0.0),
        )
        report = validate(system)
        assert any("volume" in w for w in report.warnings)
