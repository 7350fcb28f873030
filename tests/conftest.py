import os

from hypothesis import settings

# HYPOTHESIS_PROFILE=ci runs every property test on a fixed example
# sequence with no deadline, so a CI run cannot flake; locally the
# default profile applies.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
