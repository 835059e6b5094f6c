"""Detection amplitudes and probability densities along the waveguide.

Single-photon quantities for one mode of mass m:

    A(z, t) = int dk g(k) exp(-i omega(k) t + i k z) / (2 sqrt(2 pi omega(k)))
    P(z, t) = |A(z, t)|^2

and the joint two-photon analogues built from a symmetric pair amplitude
f(k1, k2).  Exact values come from the adaptive oscillatory quadrature;
the large-time behaviour along rays z = v t comes from the leading
stationary-phase term, with an applicability guard since the asymptotics
is a large-t statement.

All evaluations are pure; scan helpers share one panelization across a
grid and aggregate deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dispersion import DispersionRelation
from .quadrature import QuadResult, osc_integrate_1d_many, osc_tensor_scan
from .wavepackets import _feature_width, _quadrature_domain

__all__ = [
    "SpacetimePoint",
    "CorrelationResult",
    "AsymptoticSingle",
    "AsymptoticBiphoton",
    "amplitude_single",
    "probability_single",
    "asymptotic_single",
    "amplitude_biphoton",
    "probability_biphoton",
    "asymptotic_biphoton",
    "entangled_spacetime_profile",
    "ProfileResult",
    "single_scan",
    "biphoton_scan",
    "momentum_norm",
    "position_norm",
    "kg_residual",
    "probability_error",
]

# Stationary phase is trusted once t * omega''(k0) * width^2 reaches this.
ASYMPTOTIC_GUARD = 10.0


@dataclass(frozen=True)
class SpacetimePoint:
    z: float
    t: float


def probability_error(amp_abs, amp_error):
    """Error bound of P = |A|^2 from |A| and the amplitude's error estimate."""
    return 2.0 * amp_abs * amp_error + amp_error**2


class CorrelationResult(NamedTuple):
    """Amplitudes on a set of points, with P = |A|^2 and its error derived from them."""

    amplitudes: np.ndarray
    amp_errors: np.ndarray
    panels: int             # panels per axis of the final level

    @property
    def values(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @property
    def error_estimates(self) -> np.ndarray:
        return probability_error(np.abs(self.amplitudes), self.amp_errors)


def _single_envelope(packet, d: DispersionRelation):
    def env(k):
        return packet(k) / (2.0 * np.sqrt(2.0 * np.pi * d.omega(k)))
    return env


def _joint_envelope(f):
    """f / (8 pi sqrt(omega1 omega2)) without f's phase, in ``osc_tensor_scan``'s protocol."""
    return lambda k, wk: f.rows(k, 1.0 / np.sqrt(8.0 * np.pi * wk))


# ----------------------------------------------------------------------
# single photon
# ----------------------------------------------------------------------

def amplitude_single(packet, d: DispersionRelation, pt: SpacetimePoint,
                     rel_tol: float = 1e-9) -> QuadResult:
    """Detection amplitude A(z, t) by adaptive quadrature over the packet support."""
    amps, errs, panels = single_scan(packet, d, [pt.z], pt.t, rel_tol)
    return QuadResult(complex(amps[0]), float(errs[0]), panels)


def probability_single(packet, d: DispersionRelation, pt: SpacetimePoint,
                       rel_tol: float = 1e-9) -> tuple[float, float]:
    """P(z, t) = |A(z, t)|^2 and its propagated error estimate."""
    r = single_scan(packet, d, [pt.z], pt.t, rel_tol)
    return float(r.values[0]), float(r.error_estimates[0])


@dataclass(frozen=True)
class AsymptoticSingle:
    """Scalars for scalar (v, t); otherwise each field is an array shaped by
    broadcasting the arguments it depends on (stationary_momentum: v only)."""

    probability: float | np.ndarray
    amplitude: complex | np.ndarray
    stationary_momentum: float | np.ndarray
    guard_value: float | np.ndarray
    guard_ok: bool | np.ndarray


def _spa_factor(d: DispersionRelation, k0, v, t):
    """One detector's stationary-phase factor, phases tied to its own frame."""
    w0 = d.omega(k0)
    wdd = d.omega_dd(k0)
    return np.exp(-1j * (t * (w0 - k0 * v) + 0.25 * np.pi)) / (2.0 * np.sqrt(t * w0 * wdd))


def _guard(d: DispersionRelation, k0, t, sigma: float):
    """Stationary-phase trust measure t * omega''(k0) * sigma^2."""
    return t * d.omega_dd(k0) * sigma * sigma


def asymptotic_single(packet, d: DispersionRelation, v, t) -> AsymptoticSingle:
    """Leading stationary-phase value of P(v t, t) for large t.

    P ~ |g(k0)|^2 / (4 t omega(k0) omega''(k0)) with k0 the momentum whose
    group velocity is v; the amplitude carries the exp(-i pi/4) phase
    shift of the quadratic stationary point.  guard_ok reports whether
    t * omega''(k0) * width^2 has reached the trust threshold; below it
    the leading term can be badly off and the value is advisory only.
    ``v`` and ``t`` may be arrays; they broadcast against each other.
    """
    if not np.all(np.greater(t, 0)):
        raise ValueError(f"asymptotics requires t > 0, got {t}")
    k0 = d.stationary_point(v)
    g0 = packet(k0)
    guard = _guard(d, k0, t, packet.effective_width())
    return AsymptoticSingle(
        probability=np.abs(g0) ** 2 / (4.0 * t * d.omega(k0) * d.omega_dd(k0)),
        amplitude=g0 * _spa_factor(d, k0, v, t),
        stationary_momentum=k0,
        guard_value=guard,
        guard_ok=guard >= ASYMPTOTIC_GUARD,
    )


# ----------------------------------------------------------------------
# biphoton
# ----------------------------------------------------------------------

def amplitude_biphoton(f, d: DispersionRelation, pt1: SpacetimePoint,
                       pt2: SpacetimePoint, rel_tol: float = 1e-8) -> QuadResult:
    """Joint amplitude A(z1, t1, z2, t2) by the tensor-product panel rule.

    The defining double integral holds two exchange terms; for a
    symmetric f they are equal, so one is computed and doubled.  Both
    axes share one panelization, which keeps detector exchange an exact
    symmetry of the rule.  ``panels_used`` counts the P x P cells of the
    final level.
    """
    amps, errs, panels = biphoton_scan(f, d, pt1.t, pt2.t, [pt1.z], [pt2.z], rel_tol)
    return QuadResult(complex(amps[0, 0]), float(errs[0, 0]), panels * panels)


def probability_biphoton(f, d: DispersionRelation, pt1: SpacetimePoint,
                         pt2: SpacetimePoint, rel_tol: float = 1e-8) -> tuple[float, float]:
    r = biphoton_scan(f, d, pt1.t, pt2.t, [pt1.z], [pt2.z], rel_tol)
    return float(r.values[0, 0]), float(r.error_estimates[0, 0])


@dataclass(frozen=True)
class AsymptoticBiphoton:
    """Scalars for scalar arguments; otherwise each field is an array shaped by
    broadcasting the arguments it depends on (k_i0: v_i; guard_values: v_i, t_i)."""

    probability: float | np.ndarray
    amplitude: complex | np.ndarray
    stationary_momenta: tuple
    guard_values: tuple
    guard_ok: bool | np.ndarray


def asymptotic_biphoton(f, d: DispersionRelation, v1, v2, t1, t2) -> AsymptoticBiphoton:
    """Leading two-term stationary-phase value of the joint probability.

    Each exchange term of the joint amplitude is evaluated at the same
    stationary pair (k10, k20); the terms carry f(k10, k20) and
    f(k20, k10) respectively, sharing the frame-tied phases
    exp(-i t_i (omega(k_i0) - k_i0 v_i)) and the e^{-i pi/2} shift.  The
    squared modulus therefore includes the cross term between the two f
    evaluations; for an exchange-symmetric f the terms coincide and the
    amplitude is twice the single term, and
    P ~ |f(k10, k20) + f(k20, k10)|^2 / (16 t1 w''(k10) w(k10) t2 w''(k20) w(k20)).
    ``v1``, ``v2``, ``t1`` and ``t2`` may be arrays; they broadcast
    against each other.
    """
    if not (np.all(np.greater(t1, 0)) and np.all(np.greater(t2, 0))):
        raise ValueError("asymptotics requires t1, t2 > 0")
    k10 = d.stationary_point(v1)
    k20 = d.stationary_point(v2)
    pair = f(k10, k20) + f(k20, k10)
    amplitude = pair * _spa_factor(d, k10, v1, t1) * _spa_factor(d, k20, v2, t2)
    sigma = f.effective_width()
    g1 = _guard(d, k10, t1, sigma)
    g2 = _guard(d, k20, t2, sigma)
    return AsymptoticBiphoton(
        probability=np.abs(pair) ** 2 / (16.0 * (t1 * d.omega_dd(k10) * d.omega(k10))
                                         * (t2 * d.omega_dd(k20) * d.omega(k20))),
        amplitude=amplitude,
        stationary_momenta=(k10, k20),
        guard_values=(g1, g2),
        guard_ok=np.minimum(g1, g2) >= ASYMPTOTIC_GUARD,
    )


@dataclass(frozen=True)
class ProfileResult:
    values: np.ndarray    # |f(k10, k20)|^2, zero where invalid
    valid: np.ndarray     # False on or outside the light cone


def entangled_spacetime_profile(f, d: DispersionRelation,
                                v1: np.ndarray, v2: np.ndarray) -> ProfileResult:
    """Spacetime footprint |f(k10, k20)|^2 over a velocity-pair grid.

    Maps z_i/t_i ratios to stationary momenta and evaluates the pair
    amplitude there; this is the feature that separates an entangled f
    from a separable one.  Grid points with |v| >= 1 are flagged invalid
    and left unevaluated.
    """
    v1 = np.atleast_1d(np.asarray(v1, dtype=float))
    v2 = np.atleast_1d(np.asarray(v2, dtype=float))
    ok1 = np.abs(v1) < 1.0
    ok2 = np.abs(v2) < 1.0
    k1 = np.zeros_like(v1)
    k2 = np.zeros_like(v2)
    k1[ok1] = d.stationary_point(v1[ok1])
    k2[ok2] = d.stationary_point(v2[ok2])
    vals = np.abs(f(k1[:, None], k2[None, :])) ** 2
    valid = ok1[:, None] & ok2[None, :]
    return ProfileResult(np.where(valid, vals, 0.0), valid)


# ----------------------------------------------------------------------
# batched scans
# ----------------------------------------------------------------------

def single_scan(packet, d: DispersionRelation, z_values, t: float,
                rel_tol: float = 1e-9) -> CorrelationResult:
    """A(z, t) and P(z, t) on a z-grid at fixed t, sharing one panelization."""
    return CorrelationResult(*osc_integrate_1d_many(
        _single_envelope(packet, d), d, z_values, t,
        _quadrature_domain(packet), rel_tol=rel_tol, max_width=_feature_width(packet)))


def biphoton_scan(f, d: DispersionRelation, t1: float, t2: float,
                  z1_values, z2_values, rel_tol: float = 1e-7,
                  factorizations: dict | None = None) -> CorrelationResult:
    """Joint amplitudes on a (z1, z2) grid at fixed times.

    The amplitudes and their errors have shape (len(z1), len(z2)) and
    include the exchange doubling.  The scan integrates f's kernel, and
    its result is multiplied by f's phase.
    ``factorizations`` is the envelope factorizations dict of
    ``osc_tensor_scan``; share one only among scans of the same f and d.
    """
    vals, errs, panels = osc_tensor_scan(
        _joint_envelope(f), d, _quadrature_domain(f, rel_tol=rel_tol), t1, t2,
        z1_values, z2_values, rel_tol=rel_tol, max_width=_feature_width(f),
        factorizations=factorizations)
    return CorrelationResult(2.0 * f.phase * vals, 2.0 * errs, panels)


# ----------------------------------------------------------------------
# conserved quantities and residuals
# ----------------------------------------------------------------------

def momentum_norm(packet, d: DispersionRelation) -> float:
    """int |g(k)|^2 / (4 omega(k)) dk, the conserved norm of A, at rel_tol 1e-11."""
    vals, _, _ = osc_integrate_1d_many(
        lambda k: np.abs(packet(k)) ** 2 / (4.0 * d.omega(k)), d, [0.0], 0.0,
        _quadrature_domain(packet), rel_tol=1e-11, max_width=_feature_width(packet))
    return float(vals[0].real)


def position_norm(packet, d: DispersionRelation, t: float) -> float:
    """int |A(z, t)|^2 dz on an automatically sized window (Simpson rule).

    The window tracks the group-velocity span of the packet support plus
    a dispersive-spreading pad wide enough that the discarded tails are
    far below the target accuracy.  The amplitudes are scanned at rel_tol 1e-10.
    """
    lo, hi = packet.support
    sigma = packet.effective_width()
    vmin, vmax = float(d.omega_d(lo)), float(d.omega_d(hi))
    kmin_abs = min(abs(lo), abs(hi)) if lo * hi > 0 else 0.0
    wdd_max = float(d.omega_dd(kmin_abs))
    width_z = float(np.hypot(1.0 / sigma, wdd_max * abs(t) * sigma))
    pad = 12.0 * width_z + 16.0 / d.mass
    z_lo = min(vmin, vmax) * t - pad
    z_hi = max(vmin, vmax) * t + pad
    feature = 1.0 / sigma  # |A|^2 never varies faster than the t = 0 envelope
    n = int(np.ceil((z_hi - z_lo) / (feature / 32.0)))
    n += n % 2  # Simpson needs an even interval count
    z = np.linspace(z_lo, z_hi, n + 1)
    res = single_scan(packet, d, z, t, rel_tol=1e-10)
    simpson = np.full(n + 1, 2.0)   # composite Simpson weights 1, 4, 2, ..., 4, 1
    simpson[1::2] = 4.0
    simpson[[0, -1]] = 1.0
    return float((z_hi - z_lo) / (3 * n) * (simpson @ res.values))


def kg_residual(packet, d: DispersionRelation, z: float, t: float, h: float,
                rel_tol: float = 1e-12) -> tuple[complex, float]:
    """Central-difference wave-operator residual at one spacetime point.

    Applies (d^2/dt^2 - d^2/dz^2 + m^2) to A on a 5-point stencil of step
    h; the exact amplitude annihilates the operator, so the residual is
    pure discretization error, O(h^2).  Returns (residual, |A(z, t)|).
    """
    def amp(zz, tt):
        return amplitude_single(packet, d, SpacetimePoint(zz, tt), rel_tol).value

    centre = amp(z, t)
    a_tp = amp(z, t + h)
    a_tm = amp(z, t - h)
    a_zp = amp(z + h, t)
    a_zm = amp(z - h, t)
    res = (a_tp + a_tm - a_zp - a_zm) / (h * h) + d.mass**2 * centre
    return complex(res), abs(centre)
