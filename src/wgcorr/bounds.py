"""Empirical decay-bound fits for the detection probabilities.

Two families of bounds are checked on finite grids:

* a universal two-photon bound P <= C / ((t0 + |t1|) (t0 + |t2|)) valid
  everywhere, fitted by scanning P by quadrature over spacetime grids
  and profiling the constant against the offset t0;
* super-polynomial decay outside the light cone |z| >= |t|, checked by
  fitting log-log slopes of P along rays and by computing the constants
  C_{n1 n2} = sup P (1 + |z1|)^{n1} (1 + |z2|)^{n2}.

A grid supremum only bounds the true supremum from below, so every fit
records how much the constant drifts under grid refinement instead of
claiming a proof; the stationary-phase limit is reported beside the
universal C, never used in place of P.  Points where P falls below the
double-precision cancellation floor are reported as below-floor passes
and excluded from slope fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .correlators import SpacetimePoint, biphoton_scan, single_scan
from .dispersion import DispersionRelation

__all__ = [
    "BoundFit",
    "SlopeFit",
    "Ray",
    "LightconeReport",
    "fit_universal_bound",
    "check_lightcone_decay",
    "decay_slope_fit",
    "bound_fit_csv_rows",
    "summarize_bound_fits",
]

PROBABILITY_FLOOR = 1e-26      # |A| ~ 1e-13, the oscillatory cancellation limit
SLOPE_WINDOW = 5               # samples per local slope fit of the light-cone check
T_OFFSET_GRID_DECADES = (-2.0, 2.0)
T_OFFSET_GRID_POINTS = 50


@dataclass(frozen=True)
class BoundFit:
    bound_kind: str                       # "two_photon_universal" | "outside_lightcone"
    constant: float
    max_violation: float                  # max(P * denominator - C); <= 0 means holds
    grid_descriptor: str
    t_offset: float | None = None
    orders: tuple[int, int] | None = None
    refinement_drift: float | None = None
    t_offset_profile: tuple[np.ndarray, np.ndarray] | None = None
    asymptotic_constant: float | None = None
    n_points: int = 0
    n_below_floor: int = 0
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    half_width_95: float
    n_used: int
    n_excluded: int


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
    fits: tuple[BoundFit, ...]
    verdict: str                          # "pass" | "fail" | "inconclusive"
    ray_slopes: tuple[SlopeFit, ...]
    diagnostics: dict
    probabilities: tuple[np.ndarray, ...]   # P at each ray's samples, in ray order


# ----------------------------------------------------------------------
# universal bound
# ----------------------------------------------------------------------

def _refined_grid(v: np.ndarray) -> np.ndarray:
    """Double the density keeping the original nodes (midpoint insertion)."""
    v = np.asarray(v, dtype=float)
    mids = 0.5 * (v[:-1] + v[1:])
    return np.sort(np.concatenate([v, mids]))


def asymptotic_bound_weight(f, d: DispersionRelation,
                            v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """P * t1 * t2 in the large-time limit, on a velocity grid.

    From the stationary-phase probability this equals
    |f(k10,k20) + f(k20,k10)|^2 / (16 w''(k10) w(k10) w''(k20) w(k20));
    its grid supremum is the asymptotic estimate of the universal C.
    """
    v1 = np.atleast_1d(np.asarray(v1, dtype=float))
    v2 = np.atleast_1d(np.asarray(v2, dtype=float))
    k1 = d.stationary_point(v1)
    k2 = d.stationary_point(v2)
    pair = f(k1[:, None], k2[None, :]) + f(k2[None, :], k1[:, None])
    den1 = d.omega_dd(k1) * d.omega(k1)
    den2 = d.omega_dd(k2) * d.omega(k2)
    return np.abs(pair) ** 2 / (16.0 * den1[:, None] * den2[None, :])


def fit_universal_bound(f, d: DispersionRelation, t_pairs, v1_grid, v2_grid,
                        rel_tol: float = 1e-6) -> BoundFit:
    """Fit C and t0 such that P <= C / ((t0+|t1|) (t0+|t2|)) on the grid.

    The scan covers every (t1, t2) pair combined with the velocity grid
    (detectors at z_i = v_i t_i).  Every point is evaluated by quadrature
    (``biphoton_scan``), so every fitted P carries a quadrature error.
    When both velocity grids are equal, a (t2, t1) pair that follows
    its mirror (t1, t2) reuses the transposed grid instead of a new scan.
    All scans share one dict of envelope factorizations (see
    ``osc_tensor_scan``): pairs whose panels are set by the same largest
    time, such as 800:800 and 50:800, factor the envelope once.

    C(t0) = sup P (t0+|t1|)(t0+|t2|) is profiled on a logarithmic t0 grid
    over [1e-2, 1e2]/mass (50 points).  C(t0) never decreases with t0, so
    the reported t0 is the smallest profiled offset and C is its profile
    value; max_violation is 0 on the scanned grid by construction.  The
    grid supremum only bounds the true constant from below:
    refinement_drift records the relative change of C when the velocity
    grids double in density (original nodes kept).
    ``asymptotic_constant`` is the grid supremum of the large-time limit
    of P t1 t2 (``asymptotic_bound_weight``), for comparison only.

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
    v1_fine = _refined_grid(v1_grid)
    v2_fine = _refined_grid(v2_grid)
    coarse = np.ix_(np.isin(v1_fine, v1_grid), np.isin(v2_fine, v2_grid))

    sups = []           # (|t1|, |t2|, sup P on the coarse grid, sup P on the refined grid)
    # with one velocity grid for both detectors, the (t2, t1) grid is the
    # transpose of the (t1, t2) grid (detector exchange)
    mirror = v1_grid.shape == v2_grid.shape and bool((v1_grid == v2_grid).all())
    scanned = {}
    factorizations = {}
    for t1, t2 in pairs:
        if mirror and (t2, t1) in scanned:
            P = scanned[t2, t1].T
        else:
            amps, _, _ = biphoton_scan(f, d, t1, t2, v1_fine * t1, v2_fine * t2, rel_tol,
                                       factorizations=factorizations)
            P = np.abs(amps) ** 2
        scanned[t1, t2] = P
        sups.append((abs(t1), abs(t2), P[coarse].max(), P.max()))
    abs_t1, abs_t2, sup_coarse, sup_fine = np.array(sups, dtype=float).T

    def weighted_sup(t0: float, sup: np.ndarray) -> float:
        return float((sup * ((t0 + abs_t1) * (t0 + abs_t2))).max())

    lo = 10.0 ** T_OFFSET_GRID_DECADES[0] / d.mass
    hi = 10.0 ** T_OFFSET_GRID_DECADES[1] / d.mass
    t0_grid = np.geomspace(lo, hi, T_OFFSET_GRID_POINTS)
    profile = np.array([weighted_sup(t0, sup_coarse) for t0 in t0_grid])
    # C(t0) never decreases with t0: the least C sits at the smallest offset
    t0_best, c_base = float(t0_grid[0]), float(profile[0])
    c_fine = weighted_sup(t0_best, sup_fine)
    drift = abs(c_fine - c_base) / c_base if c_base > 0 else 0.0

    desc = (f"{len(sups)} time pairs x {v1_grid.size}x{v2_grid.size} velocities "
            f"(refined {v1_fine.size}x{v2_fine.size})")
    return BoundFit(
        bound_kind="two_photon_universal",
        constant=c_base,
        max_violation=0.0,
        grid_descriptor=desc,
        t_offset=t0_best,
        refinement_drift=drift,
        t_offset_profile=(t0_grid, profile),
        asymptotic_constant=float(asymptotic_bound_weight(f, d, v1_fine, v2_fine).max()),
        n_points=len(sups) * v1_fine.size * v2_fine.size,
    )


# ----------------------------------------------------------------------
# outside the light cone
# ----------------------------------------------------------------------

def _t_quantile(nu: int, p: float) -> float:
    """Quantile of Student's t with integer nu >= 1 degrees of freedom, 0.5 < p < 1.

    Inverts the closed-form two-sided CDF A(t|nu) = 2p - 1 (Abramowitz &
    Stegun 26.7.3 for odd nu, 26.7.4 for even nu) by bisection in
    theta = arctan(t / sqrt(nu)) on (0, pi/2) until the interval stops
    shrinking.
    """
    odd = nu % 2
    k = np.arange(nu // 2)
    # c_0 = 1, c_j = c_{j-1} (2j - 1 + odd) / (2j + odd): the series in cos^2 theta
    coef = np.cumprod(np.r_[1.0, (2 * k[1:] - 1 + odd) / (2 * k[1:] + odd)])[:k.size]

    def coverage(theta: float) -> float:
        s, c = np.sin(theta), np.cos(theta)
        series = coef @ (c * c) ** k
        return 2 / np.pi * (theta + s * c * series) if odd else s * series

    lo, hi = 0.0, 0.5 * np.pi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if coverage(mid) < 2 * p - 1:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(nu) * np.tan(mid))


def decay_slope_fit(x, p) -> SlopeFit:
    """Least-squares slope of log p against log x with a 95% half-width.

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
    n = x.size
    se = np.sqrt(float(resid @ resid) / (n - 2) / sxx)
    return SlopeFit(slope, float(_t_quantile(n - 2, 0.975) * se), n, n_excl)


def _ray_probabilities(source, d: DispersionRelation, ray: Ray, rel_tol: float):
    if ray.frozen is None:
        res = single_scan(source, d, ray.z_values, ray.t, rel_tol=rel_tol)
        return res.values
    amps, _, _ = biphoton_scan(source, d, ray.t, ray.frozen.t,
                               ray.z_values, [ray.frozen.z], rel_tol)
    return np.abs(amps[:, 0]) ** 2


def check_lightcone_decay(source, d: DispersionRelation, rays, orders,
                          rel_tol: float = 1e-9) -> LightconeReport:
    """Super-polynomial decay check on outside-the-cone rays.

    For every requested order n the local log-log slope of P against
    (1 + |z|) is fitted by least squares on every ``SLOPE_WINDOW``
    consecutive usable samples of each ray; the bound of order n passes
    on a ray once the slope stays at or below -n, the onset radius being
    the first |z| of the window after the last failing one.  A NaN slope
    fails.  Points with P below ``PROBABILITY_FLOOR`` are counted as
    below-floor passes and excluded from fits; a ray whose usable points
    cannot support a fit yields an inconclusive verdict with diagnostics.

    Returns one BoundFit per order carrying C_{n1 n2} as the supremum of
    P (1+|z1|)^{n1} (1+|z2|)^{n2} over the usable samples (n2 applies to
    the frozen detector of pair scans and is 0 for single-photon rays).
    The evaluated P along every ray is returned in ``probabilities``.
    """
    orders = [int(n) for n in orders]
    ray_data = []
    for ray in rays:
        P = _ray_probabilities(source, d, ray, rel_tol)
        ray_data.append((ray, P))

    slopes = []
    onsets = {n: [] for n in orders}
    ray_verdicts = []
    for ray, P in ray_data:
        zs = np.abs(ray.z_values)
        usable = P > PROBABILITY_FLOOR
        if usable.sum() < SLOPE_WINDOW:
            ray_verdicts.append("inconclusive")
            slopes.append(SlopeFit(np.nan, np.inf, int(usable.sum()),
                                   int((~usable).sum())))
            for n in orders:
                onsets[n].append(np.nan)
            continue
        fitted = decay_slope_fit(1.0 + zs[usable], P[usable])
        slopes.append(fitted)
        zu = zs[usable]
        lx = sliding_window_view(np.log(1.0 + zu), SLOPE_WINDOW)
        lp = sliding_window_view(np.log(P[usable]), SLOPE_WINDOW)
        dx = lx - lx.mean(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            local = (dx * lp).sum(axis=1) / (dx * dx).sum(axis=1)
        for n in orders:
            failing = np.flatnonzero(~(local <= -n))
            start = failing[-1] + 1 if failing.size else 0
            onsets[n].append(float(zu[start]) if start < local.size else np.nan)
        ray_verdicts.append("pass" if all(np.isfinite(onsets[n][-1]) for n in orders)
                            else "fail")

    fits = []
    for n in orders:
        sup = 0.0
        below = 0
        for ray, P in ray_data:
            usable = P > PROBABILITY_FLOOR
            below += int((~usable).sum())
            w1 = (1.0 + np.abs(ray.z_values[usable])) ** n
            w2 = 1.0 if ray.frozen is None else (1.0 + abs(ray.frozen.z)) ** n
            if usable.any():
                sup = max(sup, float((P[usable] * w1).max() * w2))
        n2 = 0 if all(r.frozen is None for r, _ in ray_data) else n
        fits.append(BoundFit(
            bound_kind="outside_lightcone",
            constant=sup,
            max_violation=0.0,
            grid_descriptor=f"{len(ray_data)} rays",
            orders=(n, n2),
            n_points=sum(p.size for _, p in ray_data),
            n_below_floor=below,
            diagnostics={"onset_radii": onsets[n]},
        ))

    if any(v == "inconclusive" for v in ray_verdicts):
        verdict = "inconclusive"
    elif all(v == "pass" for v in ray_verdicts):
        verdict = "pass"
    else:
        verdict = "fail"
    return LightconeReport(
        fits=tuple(fits),
        verdict=verdict,
        ray_slopes=tuple(slopes),
        diagnostics={"ray_verdicts": ray_verdicts},
        probabilities=tuple(P for _, P in ray_data),
    )


# ----------------------------------------------------------------------
# report emission
# ----------------------------------------------------------------------

_CSV_COLUMNS = ("bound_kind", "order_1", "order_2", "constant", "t_offset",
                "max_violation", "refinement_drift", "asymptotic_constant",
                "n_points", "n_below_floor", "grid")


def bound_fit_csv_rows(fits) -> tuple[tuple[str, ...], list[tuple]]:
    """Stable (header, rows) rendering of BoundFit records for CSV output."""
    rows = []
    for f in fits:
        o1, o2 = f.orders if f.orders is not None else ("", "")
        rows.append((
            f.bound_kind, o1, o2, f.constant,
            "" if f.t_offset is None else f.t_offset,
            f.max_violation,
            "" if f.refinement_drift is None else f.refinement_drift,
            "" if f.asymptotic_constant is None else f.asymptotic_constant,
            f.n_points, f.n_below_floor, f.grid_descriptor,
        ))
    return _CSV_COLUMNS, rows


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
        for key, val in sorted(f.diagnostics.items()):
            lines.append(f"  {key}: {val}")
    return "\n".join(lines) + "\n"
