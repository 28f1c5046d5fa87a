"""Ordinal approximation algorithms for metric matching problems.

Algorithms see only preference rankings; the hidden weights enter only
through the exact oracles and the ratio-verification harness. Each module
declares the names it exports in its own ``__all__``.
"""

from . import core, harness, instance, oracle, reductions
from .core import *
from .harness import *
from .instance import *
from .oracle import *
from .reductions import *

__version__ = "0.1.0"

__all__ = sorted(core.__all__ + harness.__all__ + instance.__all__ + oracle.__all__
                 + reductions.__all__)
