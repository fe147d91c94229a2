"""Percentile-based citation impact analysis.

Normalizes citation counts into percentile ranks within reference sets
(same subject category and publication year), computes top-x% excellence
shares with tie-robust fractional counting, and evaluates institutional
differences with effect sizes (Cohen's d and h), confidence intervals,
t and z tests, plus bootstrap and Mann-Whitney robustness checks.

Each public name is declared once, in its module's ``__all__``; the
package re-exports those lists in this order.
"""

from . import data, effects, errors, kernels, percentiles, resampling, svgchart, tables
from .data import *
from .effects import *
from .errors import *
from .kernels import *
from .percentiles import *
from .resampling import *
from .svgchart import *
from .tables import *

__all__ = [
    *data.__all__, *effects.__all__, *errors.__all__, *kernels.__all__,
    *percentiles.__all__, *resampling.__all__, *svgchart.__all__, *tables.__all__,
]

__version__ = "0.1.0"
