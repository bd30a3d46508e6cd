"""Exact symbolic engine for infinitesimal deformations and local rigidity of
CR embeddings of real-analytic hypersurface germs M in C^2 into M' in C^3.

All arithmetic is exact, over the field Q(i, sqrt(2)).  The top-level entry points live in
:mod:`crrigid.spaces` (deformation spaces, rigidity verdicts) and
:mod:`crrigid.cli` (command line).
"""

from crrigid.scalars import Scalar
from crrigid.series import Series

__all__ = ["Scalar", "Series"]
__version__ = "0.1.0"
