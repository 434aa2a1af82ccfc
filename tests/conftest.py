"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` selects a derandomized search.

Without it, local runs keep hypothesis's default random search.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
