"""Photon and biphoton detection statistics in hollow waveguides."""

from .dispersion import DispersionRelation
from .modes import (
    Disk,
    ModeSolverError,
    ModeSpectrum,
    Raster,
    Rectangle,
    UnsupportedShapeError,
    analytic_spectrum,
    check_completeness,
    fd_spectrum,
    load_raster,
)
from .wavepackets import (
    CorrelatedGaussian,
    GaussianPacket,
    PumpedPair,
    SymmetrizedProduct,
    TablePacket,
    biphoton_norm,
    load_table_packet,
    normalize_biphoton,
    normalized_packet,
    packet_norm,
)
from .quadrature import QuadResult, QuadratureError
from .correlators import (
    AsymptoticBiphoton,
    AsymptoticSingle,
    CorrelationResult,
    SpacetimePoint,
    amplitude_biphoton,
    amplitude_single,
    asymptotic_biphoton,
    asymptotic_single,
    biphoton_scan,
    entangled_spacetime_profile,
    kg_residual,
    momentum_norm,
    position_norm,
    probability_biphoton,
    probability_single,
    single_scan,
)
from .bounds import (
    BoundFit,
    LightconeReport,
    SlopeFit,
    check_lightcone_decay,
    decay_slope_fit,
    fit_universal_bound,
)

__version__ = "0.1.0"
