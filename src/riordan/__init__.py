"""Exact power-series arithmetic, Riordan triangles, and series reversion,
all driven by contractive iteration in the 1/2^order ultrametric.

Each module's ``__all__`` declares its public names; the package re-exports them."""

from . import series, fixpoint, triangles, reversion
from .series import *
from .fixpoint import *
from .triangles import *
from .reversion import *

__version__ = "0.1.0"

__all__ = series.__all__ + fixpoint.__all__ + triangles.__all__ + reversion.__all__
