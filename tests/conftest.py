"""Shared pytest set-up: one derandomized, bounded ``hypothesis`` profile, so
property tests draw the same examples on every run and stay fast."""

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile(
        "foldatlas", derandomize=True, max_examples=60, deadline=None, database=None
    )
    settings.load_profile("foldatlas")
