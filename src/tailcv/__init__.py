"""Variance-reduced tail-index estimation with a correlated source sample.

Estimates the extreme value index of a scarce target sample and sharpens the
classical Hill and moment estimators with approximate control variates built
from a larger, tail-dependent source sample that is only partially paired
with the target. Includes dependence diagnostics, a closed-form
variance-reduction approximation, and a replicated simulation harness.
"""

from . import acv, core, dependence, estimators, simulate, transfer
from .acv import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .dependence import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .transfer import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module's __all__ is its one export list; the package re-exports them.
__all__ = sorted(name for module in (acv, core, dependence, estimators,
                                     simulate, transfer)
                 for name in module.__all__)
