"""Error-controlled quadrature for oscillatory momentum integrals.

Evaluates integrals of the form

    I(z, t) = int_domain h(k) exp(i (k z - omega(k) t)) dk

for batches of detector positions z at one time t, and their 2-D tensor
products, from t = 0 deep into the asymptotic regime (the panel count
grows linearly in t).  The method is panels with a fixed-order embedded
Gauss(7)/Kronrod(15) pair on each panel:

* ``domain`` holds increasing breakpoints, (lo, hi) being the simplest;
  every breakpoint stays a panel edge, so an envelope kink placed there
  (a table packet's node) never falls inside a panel.
* No panel spans more than a quarter of the local oscillation period
  2*pi/|z - omega'(k) t| for any z of the batch.  Because omega' is
  monotone in k, the largest phase rate on a panel is attained at an
  endpoint, so the constraint is checked exactly from endpoint values.
  Near a stationary point this yields panels of width
  ~ sqrt(pi / (omega'' t)), which resolves the quadratic phase.
* Each point's error estimate is |sum K15 - sum G7|.  While any point
  of the batch misses max(rel_tol * largest |I|, ABS_FLOOR, arithmetic
  noise scale), every panel is bisected, within a level and panel
  budget; the noise scale matters because the estimate is itself a
  difference of large sums and cannot certify below round-off.
* The single-point entries are one-point (1-D) and 1x1 (2-D) scans.

Evaluation is pure and deterministic: the same problem always produces
the same panel subdivision and the same summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dispersion import DispersionRelation

__all__ = [
    "OscIntegralProblem",
    "QuadResult",
    "QuadratureError",
    "osc_integrate_1d",
    "osc_integrate_1d_many",
    "osc_integrate_2d",
    "osc_tensor_scan",
]

# Absolute error floor used when the integral value itself is ~ 0 and a
# relative target is meaningless (double-precision cancellation limit).
ABS_FLOOR = 1e-15

# Largest admissible phase advance per panel: a quarter oscillation.
_MAX_PHASE_PER_PANEL = 0.5 * np.pi

# The 1-D and 2-D rules refuse a panelization or bisection level that
# would put more panels than these on the domain (1-D) or on an axis
# (2-D), and raise QuadratureError instead.
MAX_PANELS_1D = 200_000
MAX_PANELS_AXIS = 60_000

# Bisection levels of the 1-D rule, and the most phase factors
# (detector positions x nodes) it holds in one block.
SCAN1D_MAX_LEVELS = 8
SCAN1D_BLOCK = 1 << 20

# Kronrod-15 abscissae (ascending) with the embedded Gauss-7 subset at the
# odd positions.  Standard QUADPACK constants; validated in the test suite
# against numpy's Gauss-Legendre nodes and exact polynomial moments.
_XGK_HALF = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
])
_WGK_HALF = np.array([
    0.02293532201052922,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552590,
    0.16900472663926790,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472783,
])
_WG_HALF = np.array([
    0.12948496616886969,
    0.27970539148927664,
    0.38183005050511894,
    0.41795918367346938,
])

XGK = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[::-1]])          # 15 ascending
WGK = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
WG = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])              # 7 ascending
GAUSS_SUBSET = np.arange(1, 15, 2)                               # G7 node positions


@dataclass(frozen=True)
class OscIntegralProblem:
    """One oscillatory integral: envelope, phase parameters and tolerance.

    ``envelope`` must accept a float ndarray of momenta and return a
    complex ndarray of the same shape.
    """

    envelope: Callable
    z: float
    t: float
    dispersion: DispersionRelation
    domain: tuple[float, ...]
    rel_tol: float = 1e-9

    def __post_init__(self):
        _check_domain_tol(self.domain, self.rel_tol)


def _check_domain_tol(domain, rel_tol: float) -> None:
    edges = np.asarray(domain, dtype=float)
    if not (edges.ndim == 1 and edges.size >= 2 and np.isfinite(edges).all()
            and (np.diff(edges) > 0).all()):
        raise ValueError(f"domain must be finite increasing breakpoints, got {domain}")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error_estimate: float
    panels_used: int
    method: str  # "adaptive_panel" or "asymptotic_spa"

    def __post_init__(self):
        if self.error_estimate < 0 or self.panels_used < 1:
            raise ValueError("invalid quadrature result fields")


class QuadratureError(RuntimeError):
    """Tolerance unreachable within the panel budget.

    Carries the best available result in ``.result`` so callers can decide
    whether the achieved error is acceptable.
    """

    def __init__(self, message: str, result: QuadResult):
        super().__init__(message)
        self.result = result


# ----------------------------------------------------------------------
# panel construction
# ----------------------------------------------------------------------

def oscillation_breakpoints(
    d: DispersionRelation,
    domain: Sequence[float],
    phase_params: Sequence[tuple[float, float]],
    max_width: float | None = None,
    max_panels: int = 1 << 20,
) -> np.ndarray:
    """Panel breakpoints satisfying the quarter-oscillation constraint.

    ``domain`` holds increasing breakpoints, every one of which stays a
    panel edge; (lo, hi) is the one-interval case.  ``phase_params`` is a
    sequence of (z, t) pairs; the constraint is enforced for every pair,
    so one subdivision can serve a whole scan.  ``max_width`` optionally
    caps panel widths at the envelope's finest feature scale so the
    fixed-order rule resolves the envelope as well.  Starting from equal
    panels on each interval, no wider than an eighth of the domain (or
    ``max_width``), every violating panel is bisected, one level at a
    time, until none violates.  Raises ValueError for a non-finite (z, t)
    and QuadratureError if the panels would exceed ``max_panels``.
    """
    zt = np.asarray(phase_params, dtype=float).reshape(-1, 2)
    if not np.isfinite(zt).all():
        raise ValueError(f"detector positions and times must be finite, got {phase_params}")
    edges = np.asarray(domain, dtype=float)
    span = edges[-1] - edges[0]
    width0 = span / 8
    if max_width is not None and max_width > 0:
        width0 = min(width0, float(max_width))
    breaks = np.concatenate(
        [np.linspace(a, b, max(int(np.ceil((b - a) / width0)), 1) + 1)[:-1]
         for a, b in zip(edges[:-1], edges[1:])] + [edges[-1:]])
    tiny = span * 1e-13
    while True:
        rate = np.abs(d.phase_rate(breaks, zt[:, :1], zt[:, 1:])).max(axis=0)
        w = breaks[1:] - breaks[:-1]
        split = (w > tiny) & (w * np.maximum(rate[:-1], rate[1:]) > _MAX_PHASE_PER_PANEL)
        n_split = int(split.sum())
        if n_split == 0:
            return breaks
        if w.size + n_split > max_panels:
            raise QuadratureError(
                f"panel budget {max_panels} exhausted while resolving oscillation on {domain}",
                QuadResult(0.0 + 0.0j, np.inf, w.size, "adaptive_panel"),
            )
        mids = 0.5 * (breaks[:-1][split] + breaks[1:][split])
        breaks = np.insert(breaks, np.flatnonzero(split) + 1, mids)


def _panel_grid(breaks: np.ndarray):
    """Flat Kronrod nodes with their K15 weights, G7 weights and G7 node mask."""
    a = breaks[:-1]
    b = breaks[1:]
    half = 0.5 * (b - a)
    centre = 0.5 * (a + b)
    k = (centre[:, None] + half[:, None] * XGK[None, :]).ravel()
    w15 = (half[:, None] * WGK[None, :]).ravel()
    w7 = (half[:, None] * WG[None, :]).ravel()
    gmask = np.zeros((half.size, XGK.size), dtype=bool)
    gmask[:, GAUSS_SUBSET] = True
    return k, w15, w7, gmask.ravel()


# |K15 - G7| cannot be trusted below the arithmetic noise of the sums;
# the noise scale is this factor times the weighted L1 norm of the integrand.
ROUNDOFF_FACTOR = 50.0 * np.finfo(float).eps


# ----------------------------------------------------------------------
# 1-D rule
# ----------------------------------------------------------------------

def osc_integrate_1d_many(
    envelope: Callable,
    d: DispersionRelation,
    z_values: np.ndarray,
    t: float,
    domain: Sequence[float],
    rel_tol: float = 1e-9,
    max_width: float | None = None,
):
    """Batched 1-D evaluation over many detector positions at one time.

    One panelization (valid for every z in the batch) is built and the
    envelope is sampled once per level.  The phase factors
    exp(i (k z - omega(k) t)) are formed once per (z, node), in blocks of
    at most ``SCAN1D_BLOCK``, and one matrix product per block gives the
    K15 and G7 sums of every z (the G7 nodes are the odd Kronrod
    positions).  A level of global panel bisection is applied when any
    point misses the error target, which is uniform over the batch:
    rel_tol times the largest amplitude (deep-tail points are round-off
    limited and still carry their own estimates).  Up to
    ``SCAN1D_MAX_LEVELS`` levels are tried within ``MAX_PANELS_1D``
    panels.  Returns (values, errors, panels).
    """
    _check_domain_tol(domain, rel_tol)
    z_values = np.atleast_1d(np.asarray(z_values, dtype=float))
    if z_values.size == 0:
        raise ValueError("z_values must hold at least one detector position")
    params = [(z, t) for z in np.unique([z_values.min(), z_values.max()])]
    breaks = oscillation_breakpoints(d, domain, params, max_width=max_width,
                                     max_panels=MAX_PANELS_1D)
    for level in range(SCAN1D_MAX_LEVELS + 1):
        k, w15, w7, gmask = _panel_grid(breaks)
        f = np.asarray(envelope(k), dtype=complex)
        weights = np.zeros((2, k.size), dtype=complex)   # K15 and G7 rows
        weights[0] = f * w15
        weights[1, gmask] = f[gmask] * w7
        wt = d.omega(k) * t
        sums = np.empty((2, z_values.size), dtype=complex)
        rows = max(SCAN1D_BLOCK // k.size, 1)
        for i0 in range(0, z_values.size, rows):
            ph = np.exp(1j * (np.outer(z_values[i0:i0 + rows], k) - wt))
            sums[:, i0:i0 + rows] = weights @ ph.T
            del ph
        vals = sums[0]
        errs = np.abs(vals - sums[1])
        noise = ROUNDOFF_FACTOR * float(np.abs(weights[0]).sum())
        target = max(rel_tol * float(np.abs(vals).max()), ABS_FLOOR, noise)
        panels = len(breaks) - 1
        if (errs <= target).all():
            return vals, errs, panels
        if level == SCAN1D_MAX_LEVELS or 2 * panels > MAX_PANELS_1D:
            worst = int(np.argmax(errs))
            raise QuadratureError(
                f"batched quadrature stalled at z={z_values[worst]:.6g} "
                f"(error {errs[worst]:.3e}, target {target:.3e}) with {panels} panels",
                QuadResult(complex(vals[worst]), float(errs[worst]), panels,
                           "adaptive_panel"),
            )
        breaks = np.sort(np.concatenate([breaks, 0.5 * (breaks[:-1] + breaks[1:])]))


def osc_integrate_1d(problem: OscIntegralProblem,
                     max_width: float | None = None) -> QuadResult:
    """One oscillatory integral: the one-point case of ``osc_integrate_1d_many``.

    Raises QuadratureError (carrying the best value and its error
    estimate) when the target is out of reach within the scan's levels
    and panel budget.
    """
    vals, errs, panels = osc_integrate_1d_many(
        problem.envelope, problem.dispersion, [problem.z], problem.t,
        problem.domain, rel_tol=problem.rel_tol, max_width=max_width)
    return QuadResult(complex(vals[0]), float(errs[0]), panels, "adaptive_panel")


# ----------------------------------------------------------------------
# 2-D tensor-product rule
# ----------------------------------------------------------------------

def osc_tensor_scan(
    joint_envelope: Callable,
    d: DispersionRelation,
    domain: Sequence[float],
    t1: float,
    t2: float,
    z1_values: np.ndarray,
    z2_values: np.ndarray,
    rel_tol: float = 1e-7,
    max_width: float | None = None,
    max_levels: int = 3,
    chunk: int = 384,
):
    """Batched 2-D evaluation over a grid of detector-position pairs.

    One panelization, shared by both axes and valid for every z in either
    batch, is built; the joint envelope is streamed once per refinement
    level, and all grid values come out of two matrix products.  Returns
    (values, errors, panels_per_axis) with values shaped
    (len(z1_values), len(z2_values)).  Sharing the panels keeps detector
    exchange an exact symmetry of the rule for a symmetric envelope.

    The error target is uniform over the grid: rel_tol times the largest
    grid amplitude.  Grid points far in the tails are then not refined
    to a meaningless per-point relative accuracy; every point still
    carries its own error estimate.
    """
    _check_domain_tol(domain, rel_tol)
    z1_values = np.atleast_1d(np.asarray(z1_values, dtype=float))
    z2_values = np.atleast_1d(np.asarray(z2_values, dtype=float))
    if z1_values.size == 0 or z2_values.size == 0:
        raise ValueError("z1_values and z2_values must each hold at least one detector position")
    params = [(float(z1_values.min()), t1), (float(z1_values.max()), t1),
              (float(z2_values.min()), t2), (float(z2_values.max()), t2)]
    breaks = oscillation_breakpoints(d, domain, params, max_width=max_width,
                                     max_panels=MAX_PANELS_AXIS)

    for level in range(max_levels + 1):
        k, w15, w7, gmask = _panel_grid(breaks)

        def weight_matrix(z_vals, t):
            ph = np.exp(1j * (np.outer(k, z_vals) - d.omega(k)[:, None] * t))
            u15 = w15[:, None] * ph
            u7 = w7[:, None] * ph[gmask]
            return u15, u7

        u15_1, u7_1 = weight_matrix(z1_values, t1)
        u15_2, u7_2 = weight_matrix(z2_values, t2)
        v15 = np.zeros((z1_values.size, z2_values.size), dtype=complex)
        v7 = np.zeros_like(v15)
        l1 = 0.0
        gcount = np.cumsum(gmask) - gmask  # g-index offset per node
        for i0 in range(0, k.size, chunk):
            sl = slice(i0, min(i0 + chunk, k.size))
            block = np.asarray(joint_envelope(k[sl][:, None], k[None, :]), dtype=complex)
            v15 += u15_1[sl].T @ (block @ u15_2)
            l1 += float(w15[sl] @ (np.abs(block) @ w15))
            rows_g = gmask[sl]
            if rows_g.any():
                j0 = int(gcount[i0])
                v7 += u7_1[j0:j0 + int(rows_g.sum())].T @ (block[rows_g][:, gmask] @ u7_2)
            del block
        errs = np.abs(v15 - v7)
        target = max(rel_tol * float(np.abs(v15).max()), ABS_FLOOR,
                     ROUNDOFF_FACTOR * l1)
        panels = len(breaks) - 1
        if (errs <= target).all():
            return v15, errs, panels
        if level == max_levels or 2 * panels > MAX_PANELS_AXIS:
            bad = np.unravel_index(int(np.argmax(errs)), errs.shape)
            raise QuadratureError(
                f"tensor scan stalled at grid point {bad} "
                f"(error {errs[bad]:.3e}, target {target:.3e})",
                QuadResult(complex(v15[bad]), float(errs[bad]),
                           panels * panels, "adaptive_panel"),
            )
        breaks = np.sort(np.concatenate([breaks, 0.5 * (breaks[:-1] + breaks[1:])]))


def osc_integrate_2d(
    joint_envelope: Callable,
    d: DispersionRelation,
    domain: Sequence[float],
    z1: float,
    t1: float,
    z2: float,
    t2: float,
    rel_tol: float = 1e-9,
    max_width: float | None = None,
) -> QuadResult:
    """Tensor-product panel rule for one double momentum integral.

    The single-point case of ``osc_tensor_scan``: a 1x1 grid with up to
    four bisection levels.  ``panels_used`` counts the P x P cells of the
    final level.
    """
    vals, errs, panels = osc_tensor_scan(
        joint_envelope, d, domain, t1, t2, [z1], [z2], rel_tol=rel_tol,
        max_width=max_width, max_levels=4, chunk=512)
    return QuadResult(complex(vals[0, 0]), float(errs[0, 0]), panels * panels,
                      "adaptive_panel")
