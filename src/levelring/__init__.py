"""Exact arithmetic for leveled values, weight vectors, interval measures,
weighted branched graphs, and edge-weighted trees, plus a JSON CLI.

The package exports exactly the names each library module lists in its
own ``__all__``."""

from levelring import measures, tracks, trees, values, vectors
from levelring.values import *
from levelring.vectors import *
from levelring.measures import *
from levelring.tracks import *
from levelring.trees import *

__all__ = [*values.__all__, *vectors.__all__, *measures.__all__, *tracks.__all__, *trees.__all__]
