"""Hypothesis profiles.  ``ci`` draws the same examples on every run and
drops the per-example deadline; select it with ``HYPOTHESIS_PROFILE=ci``."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
