"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci draws the same examples on every run and keeps no database."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
