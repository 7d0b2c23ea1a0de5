"""Auction-based allocation of edge computing capacity to mobile miners.

The package exports the public names of its modules, each listed once, in
that module's __all__.
"""

from . import auction, calibration, experiments, model
from .auction import *  # noqa: F403
from .calibration import *  # noqa: F403
from .experiments import *  # noqa: F403
from .model import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*model.__all__, *auction.__all__, *calibration.__all__, *experiments.__all__]
