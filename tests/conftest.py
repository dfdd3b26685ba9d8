"""Hypothesis draws the same examples on every run and keeps no example database,
so a tier-1 run is repeatable and writes nothing into the checkout."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
