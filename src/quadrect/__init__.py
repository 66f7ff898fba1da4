"""Exact dissection decisions for rectilinear polygons and similar rectangles.

Given a polygon composed of equal rectangles and a target side ratio
a + b*sqrt(p), this package decides tileability exactly, verifies claimed
dissections cell by cell, evaluates the dissection invariants behind the
negative answers, completes polygons to bounding rectangles, and searches
for explicit witness dissections by bounded guillotine composition.
"""

from .completion import *
from .constructor import *
from .decision import *
from .exactfield import *
from .geometry import *
from .invariants import *

__version__ = "0.1.0"

__all__ = (
    completion.__all__
    + constructor.__all__
    + decision.__all__
    + exactfield.__all__
    + geometry.__all__
    + invariants.__all__
)
