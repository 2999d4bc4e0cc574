"""Hypothesis profiles: set HYPOTHESIS_PROFILE=ci for a reproducible run.

The `ci` profile derives every example from the test itself instead of a
random seed, so a failure seen in CI fails the same way locally, and it
prints the blob that replays a failing example.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
