"""Hypothesis profiles: ``--hypothesis-profile=ci`` runs a fixed, longer
search."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=1000)
