"""Hypothesis profiles.  ``--hypothesis-profile=fuzz`` gives the drawn
tests a larger budget than the default one of a tier-1 run; CI runs
``tests/test_robustness.py`` under it."""

from hypothesis import settings

settings.register_profile("fuzz", max_examples=1500)
