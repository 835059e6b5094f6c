"""Relativistic dispersion of a single waveguide mode.

A mode with cutoff mass m propagates along the guide axis like a massive
(1+1)-dimensional field with omega(k) = sqrt(k^2 + m^2).  Natural units
c = 1 throughout: velocities are dimensionless, masses carry inverse
length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DispersionRelation"]


@dataclass(frozen=True)
class DispersionRelation:
    """Dispersion omega(k) = sqrt(k^2 + mass^2) with closed-form derivatives.

    Immutable; safe to share between concurrent evaluators.  Derivatives
    are analytic, never finite differences, because they feed asymptotic
    prefactors where numerical noise compounds.
    """

    mass: float

    def __post_init__(self):
        if not (self.mass > 0.0 and np.isfinite(self.mass)):
            raise ValueError(f"mode cutoff mass must be positive, got {self.mass}")

    def omega(self, k):
        """Frequency at momentum k (scalar or array)."""
        return np.hypot(k, self.mass)

    def omega_d(self, k):
        """Group velocity d omega/dk = k/omega(k); odd in k, |value| < 1."""
        return k / self.omega(k)

    def omega_dd(self, k):
        """Second derivative m^2/omega^3; strictly positive for all finite k."""
        w = self.omega(k)
        return self.mass**2 / (w * w * w)

    def stationary_point(self, v):
        """Momentum k0 with group velocity v, i.e. k0 = m v / sqrt(1 - v^2).

        Scalar or array.  Raises ValueError if any |v| >= 1 (no subluminal
        solution).
        """
        v = np.asarray(v, dtype=float)
        inside = np.abs(v) < 1.0
        if not inside.all():
            raise ValueError(
                f"frame velocity must satisfy |v| < 1, got v={float(v[~inside].flat[0])} "
                "(light-cone boundary excluded)"
            )
        return self.mass * v / np.sqrt(1.0 - v * v)

    def phase_rate(self, k, z, t):
        """d/dk of the travelling phase k z - omega(k) t."""
        return z - t * self.omega_d(k)
