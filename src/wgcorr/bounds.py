"""Empirical decay-bound fits for the detection probabilities.

Two families of bounds are checked on finite grids:

* a universal two-photon bound P <= C / ((t0 + |t1|) (t0 + |t2|)) valid
  everywhere, fitted by scanning P by quadrature over spacetime grids at
  the fixed offset t0 = 0.01 / mass;
* super-polynomial decay outside the light cone |z| >= |t|, checked by
  fitting log-log slopes of P along a ray and by computing the constants
  C_{n1 n2} = sup P (1 + |z1|)^{n1} (1 + |z2|)^{n2}.

A grid supremum only bounds the true supremum from below, so every fit
records how much the constant drifts under grid refinement instead of
claiming a proof; the stationary-phase limit is reported beside the
universal C, never used in place of P.  Points where P falls below the
double-precision cancellation floor are reported as below-floor passes
and excluded from slope fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .correlators import SpacetimePoint, asymptotic_biphoton, biphoton_scan, single_scan
from .dispersion import DispersionRelation
from .quadrature import _midpoint_split

__all__ = [
    "BoundFit",
    "SlopeFit",
    "Ray",
    "LightconeReport",
    "fit_universal_bound",
    "check_lightcone_decay",
    "decay_orders",
    "decay_slope_fit",
    "bound_fit_csv_rows",
    "summarize_bound_fits",
]

PROBABILITY_FLOOR = 1e-26      # |A| ~ 1e-13, the oscillatory cancellation limit
SLOPE_WINDOW = 5               # samples per local slope fit of the light-cone check


@dataclass(frozen=True)
class BoundFit:
    bound_kind: str                       # "two_photon_universal" | "outside_lightcone"
    constant: float
    max_violation: float                  # max(P * denominator - C); <= 0 means holds
    grid_descriptor: str
    t_offset: float | None = None
    orders: tuple[int, int] | None = None
    refinement_drift: float | None = None
    asymptotic_constant: float | None = None
    n_points: int = 0
    n_below_floor: int = 0
    onset_radius: float | None = None     # outside_lightcone: first |z| of the decaying tail


@dataclass(frozen=True)
class SlopeFit:
    """A log-log slope, its standard error and the samples it used and left out.

    ``half_width_95`` imports scipy's Student t quantile on first read, so
    a fit alone loads no scipy; it is inf below 3 samples (no degree of
    freedom) or for an infinite standard error.
    """

    slope: float
    std_error: float
    n_used: int
    n_excluded: int

    @property
    def half_width_95(self) -> float:
        if self.n_used < 3:
            return np.inf
        from scipy.special import stdtrit
        return float(stdtrit(self.n_used - 2, 0.975) * self.std_error)


@dataclass(frozen=True)
class Ray:
    """Samples along one outside-the-cone ray at fixed detection time.

    ``frozen`` pins the second detector of a pair measurement; leave it
    None for single-photon scans.
    """

    t: float
    z_values: np.ndarray
    frozen: SpacetimePoint | None = None

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z_values, dtype=float))
        if not (np.abs(z) >= abs(self.t)).all():
            raise ValueError("ray samples must satisfy |z| >= |t| (outside the cone)")
        object.__setattr__(self, "z_values", z)


@dataclass(frozen=True)
class LightconeReport:
    """The light-cone check of one ray: its fits, verdict, whole-ray slope and P."""

    fits: tuple[BoundFit, ...]
    verdict: str                          # "pass" | "fail" | "inconclusive"
    slope: SlopeFit
    probabilities: np.ndarray


# ----------------------------------------------------------------------
# universal bound
# ----------------------------------------------------------------------

def fit_universal_bound(f, d: DispersionRelation, t_pairs, v1_grid, v2_grid,
                        rel_tol: float = 1e-6) -> BoundFit:
    """Fit C such that P <= C / ((t0+|t1|) (t0+|t2|)) on the grid.

    The scan covers every (t1, t2) pair combined with the velocity grid
    (detectors at z_i = v_i t_i).  Every point is evaluated by quadrature
    (``biphoton_scan``), so every fitted P carries a quadrature error.
    When both velocity grids are equal, a (t2, t1) pair that follows
    its mirror (t1, t2) reuses the transposed grid instead of a new scan.
    All scans share one dict of envelope factorizations (see
    ``osc_tensor_scan``): pairs whose panels are set by the same largest
    time, such as 800:800 and 50:800, factor the envelope once.

    The offset is fixed at t0 = 0.01 / mass.  Every t0 > 0 gives a valid
    bound with its own constant C(t0) = sup P (t0+|t1|)(t0+|t2|): the
    weight is positive, and P is bounded and falls like 1/(|t1| |t2|), so
    the supremum is finite.  C(t0) never decreases with t0, so a profile
    over t0 selects nothing; the smallest offset gives the least C.
    max_violation is 0 on the scanned grid by construction.  The grid
    supremum only bounds the true constant from below:
    refinement_drift records the relative change of C when the velocity
    grids double in density (original nodes kept).
    ``asymptotic_constant`` is the supremum of the large-time limit of
    P t1 t2 (``asymptotic_biphoton`` at t1 = t2 = 1) on the grid of C,
    the unrefined one, for comparison only.

    Raises ValueError for an empty or malformed ``t_pairs`` and for a
    velocity grid that is empty, not 1-D, not finite or reaches |v| >= 1.
    """
    try:
        pairs = [(float(t1), float(t2)) for t1, t2 in t_pairs]
    except (TypeError, ValueError):
        pairs = []
    if not pairs or not np.isfinite(pairs).all():
        raise ValueError(f"t_pairs must be a non-empty list of finite (t1, t2) pairs, "
                         f"got {t_pairs!r}")
    v1_grid = np.asarray(v1_grid, dtype=float)
    v2_grid = np.asarray(v2_grid, dtype=float)
    for name, v in (("v1_grid", v1_grid), ("v2_grid", v2_grid)):
        if not (v.ndim == 1 and v.size and np.isfinite(v).all() and (np.abs(v) < 1.0).all()):
            raise ValueError(f"{name} must be a non-empty 1-D grid of finite velocities "
                             f"with |v| < 1, got {v!r}")
    v1_fine, v2_fine = (_midpoint_split(v, np.ones(v.size - 1, dtype=bool))
                        for v in (v1_grid, v2_grid))
    t0 = 1e-2 / d.mass

    sups = []           # sup P (t0+|t1|)(t0+|t2|) on the coarse and on the refined grid
    # with one velocity grid for both detectors, the (t2, t1) grid is the
    # transpose of the (t1, t2) grid (detector exchange)
    mirror = v1_grid.shape == v2_grid.shape and bool((v1_grid == v2_grid).all())
    scanned = {}
    factorizations = {}
    for t1, t2 in pairs:
        if mirror and (t2, t1) in scanned:
            P = scanned[t2, t1].T
        else:
            P = biphoton_scan(f, d, t1, t2, v1_fine * t1, v2_fine * t2, rel_tol,
                              factorizations=factorizations).values
        scanned[t1, t2] = P
        weight = (t0 + abs(t1)) * (t0 + abs(t2))
        sups.append((P[::2, ::2].max() * weight, P.max() * weight))
    c_base, c_fine = (float(c) for c in np.max(sups, axis=0))
    drift = abs(c_fine - c_base) / c_base if c_base > 0 else 0.0
    limit = asymptotic_biphoton(f, d, v1_grid[:, None], v2_grid[None, :], 1.0, 1.0)

    desc = (f"{len(sups)} time pairs x {v1_grid.size}x{v2_grid.size} velocities "
            f"(refined {v1_fine.size}x{v2_fine.size})")
    return BoundFit(
        bound_kind="two_photon_universal",
        constant=c_base,
        max_violation=0.0,
        grid_descriptor=desc,
        t_offset=t0,
        refinement_drift=drift,
        asymptotic_constant=float(limit.probability.max()),
        n_points=len(sups) * v1_fine.size * v2_fine.size,
    )


# ----------------------------------------------------------------------
# outside the light cone
# ----------------------------------------------------------------------

def decay_slope_fit(x, p) -> SlopeFit:
    """Least-squares slope of log p against log x, with its standard error.

    Nonpositive p samples are excluded (flagged in n_excluded).  Raises
    ValueError for x not finite and positive, p not finite, fewer than 5
    valid samples, or x constant on them.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if not (np.isfinite(x).all() and (x > 0).all()):
        raise ValueError(f"slope fit needs finite positive x, got {x}")
    if not np.isfinite(p).all():
        raise ValueError(f"slope fit needs finite p, got {p}")
    good = p > 0
    n_excl = int((~good).sum())
    x, p = x[good], p[good]
    if x.size < 5:
        raise ValueError(f"slope fit needs >= 5 positive samples, got {x.size}")
    if x.min() == x.max():
        raise ValueError(f"slope fit needs x that is not constant, got {x}")
    lx, lp = np.log(x), np.log(p)
    dx = lx - lx.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ lp) / sxx
    resid = lp - lp.mean() - slope * dx
    se = np.sqrt(float(resid @ resid) / (x.size - 2) / sxx)
    return SlopeFit(slope, float(se), x.size, n_excl)


def _ray_probabilities(source, d: DispersionRelation, ray: Ray, rel_tol: float):
    if ray.frozen is None:
        return single_scan(source, d, ray.z_values, ray.t, rel_tol=rel_tol).values
    return biphoton_scan(source, d, ray.t, ray.frozen.t,
                         ray.z_values, [ray.frozen.z], rel_tol).values[:, 0]


def decay_orders(orders) -> list[int]:
    """``orders`` as ints; ValueError unless a non-empty list of whole numbers >= 0."""
    orders = list(orders)
    if not (orders and all(float(n).is_integer() and n >= 0 for n in orders)):
        raise ValueError(f"decay orders must be a non-empty list of integers >= 0, "
                         f"got {orders!r}")
    return [int(n) for n in orders]


def check_lightcone_decay(source, d: DispersionRelation, ray: Ray, orders,
                          rel_tol: float = 1e-9) -> LightconeReport:
    """Super-polynomial decay check on one outside-the-cone ray.

    For every requested order n the local log-log slope of P against
    (1 + |z|) is fitted by least squares on every ``SLOPE_WINDOW``
    consecutive usable samples of the ray; the bound of order n passes
    once the slope stays at or below -n, the onset radius being the
    first |z| of the window after the last failing one.  A NaN slope
    fails.  Points with P below ``PROBABILITY_FLOOR`` are counted as
    below-floor passes and excluded from fits; usable points too few
    for a fit yield an inconclusive verdict.

    Returns one BoundFit per order carrying C_{n1 n2} as the supremum of
    P (1+|z1|)^{n1} (1+|z2|)^{n2} over the usable samples (n2 applies to
    the frozen detector of a pair ray and is 0 for a single-photon ray),
    the whole-ray slope fit and P at the ray's samples; a caller with more
    rays loops.  Raises ValueError, before any scan, unless ``orders``
    passes ``decay_orders``.
    """
    orders = decay_orders(orders)
    P = _ray_probabilities(source, d, ray, rel_tol)
    usable = P > PROBABILITY_FLOOR
    zu, pu = np.abs(ray.z_values[usable]), P[usable]
    z_frozen = 0.0 if ray.frozen is None else abs(ray.frozen.z)
    if pu.size < SLOPE_WINDOW:
        slope = SlopeFit(np.nan, np.inf, pu.size, P.size - pu.size)
        onsets = [np.nan] * len(orders)
        verdict = "inconclusive"
    else:
        slope = decay_slope_fit(1.0 + zu, pu)
        lx = sliding_window_view(np.log(1.0 + zu), SLOPE_WINDOW)
        lp = sliding_window_view(np.log(pu), SLOPE_WINDOW)
        dx = lx - lx.mean(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            local = (dx * lp).sum(axis=1) / (dx * dx).sum(axis=1)
        onsets = []
        for n in orders:
            failing = np.flatnonzero(~(local <= -n))
            start = failing[-1] + 1 if failing.size else 0
            onsets.append(float(zu[start]) if start < local.size else np.nan)
        verdict = "pass" if np.isfinite(onsets).all() else "fail"

    fits = tuple(BoundFit(
        bound_kind="outside_lightcone",
        constant=float((pu * (1.0 + zu) ** n).max() * (1.0 + z_frozen) ** n) if pu.size else 0.0,
        max_violation=0.0,
        grid_descriptor="1 rays",   # the grid text of bound_fits.csv, kept byte-stable
        orders=(n, 0 if ray.frozen is None else n),
        n_points=P.size,
        n_below_floor=int((~usable).sum()),
        onset_radius=r,
    ) for n, r in zip(orders, onsets))
    return LightconeReport(fits=fits, verdict=verdict, slope=slope, probabilities=P)


# ----------------------------------------------------------------------
# report emission
# ----------------------------------------------------------------------

_CSV_COLUMNS = ("bound_kind", "order_1", "order_2", "constant", "t_offset",
                "max_violation", "refinement_drift", "asymptotic_constant",
                "n_points", "n_below_floor", "grid")


def bound_fit_csv_rows(fits) -> tuple[tuple[str, ...], list[tuple]]:
    """Stable (header, rows) rendering of BoundFit records for CSV output."""
    rows = [(f.bound_kind, *(f.orders or (None, None)), f.constant, f.t_offset,
             f.max_violation, f.refinement_drift, f.asymptotic_constant, f.n_points,
             f.n_below_floor, f.grid_descriptor) for f in fits]
    # a field the fit does not carry (None) is an empty cell
    return _CSV_COLUMNS, [tuple("" if v is None else v for v in row) for row in rows]


def summarize_bound_fits(fits) -> str:
    """Human-readable structured-text summary of a collection of fits."""
    lines = []
    for f in fits:
        lines.append(f"bound: {f.bound_kind}")
        if f.orders is not None:
            lines.append(f"  orders: n1={f.orders[0]} n2={f.orders[1]}")
        lines.append(f"  constant: {f.constant:.9e}")
        if f.t_offset is not None:
            lines.append(f"  t_offset: {f.t_offset:.9e}")
        lines.append(f"  max_violation: {f.max_violation:.3e} "
                     f"({'holds on grid' if f.max_violation <= 0 else 'VIOLATED'})")
        if f.refinement_drift is not None:
            lines.append(f"  refinement_drift: {f.refinement_drift:.3%}")
        if f.asymptotic_constant is not None:
            lines.append(f"  asymptotic_constant: {f.asymptotic_constant:.9e}")
        lines.append(f"  grid: {f.grid_descriptor}")
        if f.n_below_floor:
            lines.append(f"  below_floor_points: {f.n_below_floor}")
        if f.onset_radius is not None:
            lines.append(f"  onset_radii: [{f.onset_radius}]")
    return "\n".join(lines) + "\n"
