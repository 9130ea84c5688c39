"""Settings shared by every test module."""

from hypothesis import settings

# Property tests are gates: each run draws the same examples (derived from
# the test itself, not from a random seed), and no example database carries
# failures from one run into the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
