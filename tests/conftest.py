"""One Hypothesis profile for every property test in the suite.

Runs are derandomized and keep no example database, so that each run checks
the same examples, and no per-example deadline applies, so that a slow or
busy machine fails no test.  Each test states only its max_examples.
"""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, database=None, deadline=None)
settings.load_profile("suite")
