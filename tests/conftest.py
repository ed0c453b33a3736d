"""Hypothesis profiles for the suite.

``ci`` (``pytest --hypothesis-profile=ci``) prints the blob that replays
a failing example with ``@reproduce_failure``, so a property that fails
on a CI runner can be rerun locally; deadlines are off, since the
runners' timing varies.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
