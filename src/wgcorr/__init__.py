"""Photon and biphoton detection statistics in hollow waveguides.

The package exports the ``__all__`` of each library module.
"""

from .dispersion import *
from .modes import *
from .wavepackets import *
from .quadrature import *
from .correlators import *
from .bounds import *

__version__ = "0.1.0"
