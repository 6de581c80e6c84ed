"""Shared pytest set-up: one derandomized, bounded ``hypothesis`` profile, so
property tests draw the same examples on every run and stay fast; a fixture
that counts calls of package functions; and the normal form the CI workflow
classifies."""

import collections
import sys

import pytest

from foldatlas.system import build_normal_form

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile(
        "foldatlas", derandomize=True, max_examples=60, deadline=None, database=None
    )
    settings.load_profile("foldatlas")


@pytest.fixture
def call_counts(monkeypatch):
    """``call_counts(owner, *names)`` wraps each named function of ``owner``
    (a module or a class) wherever it is bound: on ``owner`` and in every
    loaded ``foldatlas`` module namespace.  Every call returns the same
    live Counter of calls by name."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(owner, *names):
        namespaces = [owner] + [
            m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "foldatlas"
        ]
        for name in names:
            original = vars(owner)[name]
            wrapper = counted(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        monkeypatch.setattr(ns, attr, wrapper)
        return counts

    return install


@pytest.fixture
def ci_normal_form():
    """The system the CI workflow serializes and classifies: an invisible
    two-fold at the origin, with higher-order terms."""
    hot = {"cx": [[[0, 1, 0], 0.2]], "cy": [[[1, 0, 0], -0.1]],
           "cz": [[[2, 0, 0], 0.3], [[0, 1, 1], 0.1]]}
    return build_normal_form(-0.6, 1.2, 0.8, -1.0, hot=hot)
