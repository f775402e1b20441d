"""Minimax thresholding shrinkage for normal means, with a wavelet-regression testbed.

The canonical module estimates a d-dimensional normal mean by per-coordinate
thresholding shrinkage driven by a pooled magnitude statistic; the remaining
modules apply it level by level in an orthonormal wavelet decomposition and
measure risk against classical soft- and block-thresholding baselines.
"""

# the package's names are the union of its modules' __all__ lists; cli stays
# out, so importing the package loads no command-line code
from .baselines import *
from .canonical import *
from .dwt import *
from .harness import *
from .testbed import *

__version__ = "0.1.0"
