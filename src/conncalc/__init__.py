"""Connectivity calculus for signed interaction multigraphs.

A scenario is a set of entities joined by signed, weighted connections,
scored from one host entity's point of view. The package computes
connectivity scores and quality bands, detects confusion and its causes,
enumerates interaction paths, maintains the silent-connection closure law,
runs ablation experiments, and reads and writes a canonical JSON format.
All arithmetic is exact: quantities are rationals, never floats.
"""

from __future__ import annotations

# Each module's ``__all__`` is its part of the package API.
from .ablation import *
from .errors import *
from .metrics import *
from .model import *
from .paths import *
from .scenario_io import *

__version__ = "0.1.0"

# The imports above also bind each submodule by name here.
__all__ = sorted(
    ablation.__all__ + errors.__all__ + metrics.__all__ + model.__all__ + paths.__all__
    + scenario_io.__all__
) + ["__version__"]
