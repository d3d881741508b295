"""Shared test settings.

Property tests run under a deterministic hypothesis profile: the same
examples on every run (so no example database is kept), no per-example
deadline (the first call of a numpy path can be slow), and few enough
examples to keep the suite quick.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile(
        "pairnorm", derandomize=True, database=None, deadline=None, max_examples=40
    )
    settings.load_profile("pairnorm")
