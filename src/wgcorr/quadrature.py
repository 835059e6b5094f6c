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
* No panel starts out spanning more than one local oscillation period
  2*pi/|z - omega'(k) t| for any z of the batch, which a K15 panel
  resolves; the K15/G7 estimate bisects any panel that is too wide.
  Because omega' is monotone in k, the largest phase rate on a panel is
  attained at an endpoint, so the constraint is checked exactly from
  endpoint values.  Near a stationary point this yields panels of width
  ~ sqrt(4 pi / (omega'' t)), which resolves the quadratic phase.
* Both rules sum phases through one kernel, ``_phase_sums``: phase
  factors times K15- and G7-weighted basis rows, the basis being the
  envelope in 1-D and the cross factor U of the envelope matrix in 2-D.
* The 2-D rule contracts a symmetric cross approximation U M U^T of the
  envelope matrix (real for real envelope rows), evaluating O(N r) of its
  N^2 entries for rank r; a cross whose truncation misses the error
  target is continued once, and the rule falls back to the dense matrix
  when the rank is high.  Scans of one envelope at several times can
  share the factorization of a panelization.
* Each point's error estimate is |sum K15 - sum G7| (in 2-D plus a
  bound on the cross approximation's truncation), and at least the
  arithmetic noise scale, below which the estimate, a difference of
  large sums, cannot certify.  One loop, ``_adapt``, refines both
  rules: while any point of the batch misses
  max(rel_tol * largest |I|, ABS_FLOOR, noise scale), every panel is
  bisected, within a level and panel budget.

Evaluation is pure and deterministic: the same problem always produces
the same panel subdivision and the same summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dispersion import DispersionRelation

__all__ = [
    "QuadResult",
    "QuadratureError",
    "osc_integrate_1d_many",
    "osc_tensor_scan",
]

# Absolute error floor used when the integral value itself is ~ 0 and a
# relative target is meaningless (double-precision cancellation limit).
ABS_FLOOR = 1e-15

# Largest phase advance per initial panel: one oscillation.  A K15 panel
# resolves it, and the K15/G7 estimate bisects a panel that it does not.
_MAX_PHASE_PER_PANEL = 2.0 * np.pi

# The 1-D and 2-D rules refuse a panelization or bisection level that
# would put more panels than these on the domain (1-D) or on an axis
# (2-D), and raise QuadratureError instead.
MAX_PANELS_1D = 200_000
MAX_PANELS_AXIS = 60_000

# Bisection levels of the 1-D rule.
SCAN1D_MAX_LEVELS = 8

# The most values one block holds (but at least one row): envelope values
# (check rows, their residuals, dense rows), and phase factors (detector
# positions x nodes) with the weighted basis rows they multiply.  Both rules
# sum contractions block by block, so the block shapes fix the summation order.
BLOCK_VALUES = 1 << 16

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
_WG15 = np.zeros(15)                                             # G7 weights on the K15 nodes
_WG15[GAUSS_SUBSET] = WG


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
    """Panel breakpoints on which no panel spans more than ``_MAX_PHASE_PER_PANEL``.

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
    width0 = _initial_width(span, max_width)
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
                QuadResult(0.0 + 0.0j, np.inf, w.size),
            )
        breaks = _midpoint_split(breaks, split)


def _midpoint_split(breaks: np.ndarray, split: np.ndarray) -> np.ndarray:
    """``breaks`` with the midpoint of every panel that the mask ``split`` selects."""
    mids = 0.5 * (breaks[:-1][split] + breaks[1:][split])
    return np.insert(breaks, np.flatnonzero(split) + 1, mids)


def _initial_width(span: float, max_width: float | None) -> float:
    """Widest initial panel: an eighth of the domain, or ``max_width`` if narrower."""
    if max_width is not None and max_width > 0:
        return min(span / 8, float(max_width))
    return span / 8


def _sorted_unique(values) -> np.ndarray:
    """np.unique of a non-empty 1-D array, without the numpy.ma import of np.unique."""
    x = np.sort(np.ravel(values))
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _graded_edge(domain: Sequence[float], h: float, rel_tol: float) -> np.ndarray:
    """``domain`` plus the breakpoints lo + h 2^-j, j = J ... 0, graded toward lo.

    The geometric mesh for an integrand ~ sqrt(k - lo) (C. Schwab, *p- and
    hp-Finite Element Methods*, 1998): each panel but the first lies at its
    own width from lo, where the fixed-order rule converges as on a smooth
    integrand.  The first panel [lo, lo + w] errs by about w^{3/2}, so J is
    the least depth with w^{3/2} <= rel_tol.
    """
    edges = np.asarray(domain, dtype=float)
    depth = max(int(np.ceil(np.log2(h / rel_tol ** (2.0 / 3.0)))), 0)
    grade = edges[0] + h * 0.5 ** np.arange(depth, -1, -1)
    return _sorted_unique(np.concatenate([edges, grade[grade < edges[-1]]]))


def _panel_grid(breaks: np.ndarray):
    """Flat Kronrod nodes with their K15 weights and G7 weights (zero off the G7 nodes)."""
    a = breaks[:-1]
    b = breaks[1:]
    half = 0.5 * (b - a)
    centre = 0.5 * (a + b)
    k = (centre[:, None] + half[:, None] * XGK[None, :]).ravel()
    w15 = (half[:, None] * WGK[None, :]).ravel()
    w7 = (half[:, None] * _WG15[None, :]).ravel()
    return k, w15, w7


# |K15 - G7| cannot be trusted below the arithmetic noise of the sums;
# the noise scale is this factor times the weighted L1 norm of the integrand.
ROUNDOFF_FACTOR = 50.0 * np.finfo(float).eps


# ----------------------------------------------------------------------
# phase sums
# ----------------------------------------------------------------------

def _node_slices(n: int, width: int) -> list[slice]:
    """Consecutive node blocks of at most ``BLOCK_VALUES`` values, ``width`` per node."""
    step = max(BLOCK_VALUES // max(width, 1), 1)
    return [slice(i0, i0 + step) for i0 in range(0, n, step)]


def _phase_sums(grid, axis, s: slice, b: np.ndarray) -> np.ndarray:
    """K15 and G7 sums of the basis rows ``b`` on the nodes k[s], a (2, len(z), r) stack.

    ``grid`` is (k, w15, w7, omega(k)) and ``axis`` is (z_values, t); with
    E = exp(i (z k - omega(k) t)) on k[s], one product weights the basis
    rows, not the phases: E [w15 b | w7 b].  A real basis takes a real
    product, on the real and imaginary parts of E side by side.
    """
    k, w15, w7, wk = grid
    z_values, t = axis
    e = np.exp(1j * (np.outer(k[s], z_values) - wk[s, None] * t))
    wb = np.concatenate([w15[s, None] * b, w7[s, None] * b], axis=1).T
    sums = (wb @ e.view(float)).view(complex) if wb.dtype == float else wb @ e
    return sums.reshape(2, -1, z_values.size).transpose(0, 2, 1)


def _project(grid, axis, basis: np.ndarray) -> np.ndarray:
    """``_phase_sums`` of ``basis`` (nodes x r) over all nodes, in blocks of ``BLOCK_VALUES``."""
    out = np.zeros((2, axis[0].size, basis.shape[1]), dtype=complex)
    for s in _node_slices(basis.shape[0], axis[0].size + 2 * basis.shape[1]):
        out += _phase_sums(grid, axis, s, basis[s])
    return out


# ----------------------------------------------------------------------
# refinement loop
# ----------------------------------------------------------------------

def _target(values: np.ndarray, rel_tol: float, noise: float) -> float:
    """The error target of a level, uniform over the batch."""
    return max(rel_tol * float(np.abs(values).max()), ABS_FLOOR, noise)


def _adapt(level: Callable, d: DispersionRelation, domain, axes, rel_tol: float,
           max_width: float | None, max_levels: int, max_panels: int):
    """The refinement loop of both rules; returns (values, errors, panels_per_axis).

    ``axes`` holds a (z_values, t) pair per axis, and the panels are valid
    at the ends of every axis.  ``level(breaks, grid)``, ``grid`` being
    (k, w15, w7, omega(k)), returns the values, their error estimates and
    the round-off scale, at which the errors are floored; values that are
    not finite raise ValueError at once.  While any point
    misses ``_target``, every panel is bisected, within ``max_levels``
    levels and ``max_panels`` panels per axis; a stall raises
    QuadratureError naming the worst point's detector positions.
    """
    _check_domain_tol(domain, rel_tol)
    if any(z.size == 0 for z, _ in axes):
        raise ValueError("each axis must hold at least one detector position")
    params = [(float(end(z)), t) for z, t in axes for end in (np.min, np.max)]
    breaks = oscillation_breakpoints(d, domain, params, max_width=max_width,
                                     max_panels=max_panels)
    for depth in range(max_levels + 1):
        k, w15, w7 = _panel_grid(breaks)
        vals, errs, noise = level(breaks, (k, w15, w7, d.omega(k)))
        if not np.isfinite(vals).all():
            raise ValueError(f"the integrand is not finite on {len(breaks) - 1} panels")
        errs = np.maximum(errs, noise)
        target = _target(vals, rel_tol, noise)
        panels = len(breaks) - 1
        if (errs <= target).all():
            return vals, errs, panels
        if depth == max_levels or 2 * panels > max_panels:
            worst = np.unravel_index(int(np.argmax(errs)), errs.shape)
            at = ", ".join(f"{z[i]:.6g}" for (z, _), i in zip(axes, worst))
            raise QuadratureError(
                f"quadrature stalled at z = {at} (error {errs[worst]:.3e}, "
                f"target {target:.3e}) with {panels} panels per axis",
                QuadResult(complex(vals[worst]), float(errs[worst]), panels ** len(axes)),
            )
        breaks = _midpoint_split(breaks, np.ones(panels, dtype=bool))


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
    envelope is sampled once per level; its dtype picks the arithmetic.
    The K15 and G7 sums of every z are the ``_project`` of the envelope as
    one basis column, in blocks of ``BLOCK_VALUES`` (the G7 nodes are the
    odd Kronrod positions).  Each point's error is |K15 - G7|, and at
    least the round-off scale of the target.  ``_adapt`` bisects every
    panel while any point misses the error target, which is uniform over
    the batch: rel_tol times the largest amplitude (deep-tail points are
    round-off limited and still carry their own estimates).  Up to
    ``SCAN1D_MAX_LEVELS`` levels are tried within ``MAX_PANELS_1D``
    panels.  Returns (values, errors, panels).
    """
    axis = (np.atleast_1d(np.asarray(z_values, dtype=float)), t)

    def level(breaks, grid):
        f = np.asarray(envelope(grid[0]))
        vals, g7 = _project(grid, axis, f[:, None])[..., 0]
        return vals, np.abs(vals - g7), ROUNDOFF_FACTOR * float(np.abs(f) @ grid[1])

    return _adapt(level, d, domain, [axis], rel_tol, max_width,
                  SCAN1D_MAX_LEVELS, MAX_PANELS_1D)


# ----------------------------------------------------------------------
# 2-D tensor-product rule
# ----------------------------------------------------------------------

# Bisection levels of the 2-D rule.
SCAN2D_MAX_LEVELS = 4

# The 2-D rule contracts a symmetric cross approximation of the envelope
# matrix; it stops once the sampled residual rows are at most CROSS_TOL
# times the largest envelope value seen.
CROSS_TOL = 1e-11

# The cross gives up above rank min(n / 10, MAX_CROSS_RANK) on n nodes; the
# dense path, which evaluates all n^2 envelope values, needs n^2 within
# DENSE_MAX_VALUES (n up to 16,384).
MAX_CROSS_RANK = 256
DENSE_MAX_VALUES = 1 << 28

# Bunch-Kaufman threshold between 1x1 and 2x2 pivots: it bounds the growth
# of the residual at each step of a symmetric indefinite elimination.
_PIVOT_ALPHA = (1.0 + np.sqrt(17.0)) / 8.0


class _Cross(tuple):
    """The (U, M, rho) that ``_cross_steps`` yields next, or None if it gives
    up; ``refine(shrink)`` continues that cross until rho falls by ``shrink``."""

    def __new__(cls, steps, shrink=None):
        try:
            self = super().__new__(cls, steps.send(shrink))
        except StopIteration:
            return None
        self.refine = lambda shrink: _Cross(steps, shrink)
        return self


def _symmetric_cross(rows: Callable, checks: np.ndarray):
    """Symmetric adaptive cross approximation F ~ U M U^T of a symmetric matrix.

    ``rows(idx)`` returns the rows F[idx, :]; only O(n r) entries are
    evaluated for rank r.  This is partially pivoted ACA (M. Bebendorf,
    Numer. Math. 86 (2000) 565-589) made symmetric: each pivot is a 1x1
    or 2x2 block chosen as in the Bunch-Kaufman factorization, U holds
    the residual rows at the pivots and M the inverse of each pivot
    block, so M is symmetric (block diagonal, here tridiagonal) and
    U M U^T is exactly symmetric.  The ``checks`` rows are sampled at
    the start and again whenever the candidate row's residual falls to
    ``CROSS_TOL`` times the largest entry seen; a check row above that
    becomes the next candidate.  Pivoting is deterministic.  Returns a
    ``_Cross`` (U, M, rho), rho being the largest residual entry on
    those non-pivot rows, or None when the rank would pass
    min(n / 10, MAX_CROSS_RANK), the sampled block F[checks, checks] is
    not symmetric, or a row is not finite.  Its ``refine`` goes on
    pivoting where it stopped.  No row is evaluated twice.
    The dtype of the rows picks the arithmetic: float64 rows give a real
    U and M, complex rows a complex cross.

    U starts with 128 rows and doubles when full; the check rows fill one
    array in row blocks, and their residuals go in column blocks, of
    ``BLOCK_VALUES``: memory O((r + checks) n) values of 8 bytes (16 on
    the complex path).
    """
    return _Cross(_cross_steps(rows, checks))


def _cross_steps(rows: Callable, checks: np.ndarray):
    """The cross of ``_symmetric_cross``: yields (U, M, rho) once it meets
    ``CROSS_TOL``, then goes on until rho falls by the factor sent back."""
    tol = CROSS_TOL
    first = rows(checks[:1])
    n, dtype = first.shape[1], first.dtype
    step = max(BLOCK_VALUES // n, 1)
    raw_checks = np.empty((checks.size, n), dtype=dtype)
    raw_checks[0] = first[0]
    for i0 in range(1, checks.size, step):
        raw_checks[i0:i0 + step] = rows(checks[i0:i0 + step])
    sub = raw_checks[:, checks]
    scale = float(np.abs(raw_checks).max(initial=0.0))
    if not (np.isfinite(raw_checks).all()
            and np.abs(sub - sub.T).max(initial=0.0) <= 1e-14 * scale):
        return
    max_rank = min(n // 10, MAX_CROSS_RANK)
    ut = np.empty((min(128, max_rank), n), dtype=dtype)   # columns of U
    md = np.zeros(max_rank + 2, dtype=dtype)             # diagonal of M
    mo = np.zeros(max_rank + 2, dtype=dtype)             # M[c, c+1] = M[c+1, c]
    pivot = np.zeros(n, dtype=bool)
    sampled = dict(zip(checks.tolist(), raw_checks))
    r = 0

    def residual(raw, idx, cols=slice(None)):
        x = ut[:r, idx]
        y = md[:r, None] * x
        y[:-1] += mo[:r][:-1, None] * x[1:]
        y[1:] += mo[:r][:-1, None] * x[:-1]
        return raw[:, cols] - y.T @ ut[:r, cols]

    def new_row(i):
        raw = sampled[i] if i in sampled else rows(np.array([i]))[0]
        return raw if np.isfinite(raw).all() else None

    c = int(np.argmax(np.abs(raw_checks).max(axis=1)))
    i, raw = int(checks[c]), raw_checks[c]
    while True:
        res = residual(raw[None, :], [i])[0]
        scale = max(scale, float(np.abs(raw).max()))
        j = int(np.argmax(np.abs(res)))
        b = abs(res[j])
        if b <= tol * scale:
            worst = np.max([np.abs(residual(raw_checks, checks, s)).max(axis=1)
                            for s in _node_slices(n, checks.size)], axis=0)
            c = int(np.argmax(worst))
            rho = max(b, float(worst[c]))
            if rho <= tol * scale:
                off = mo[:max(r - 1, 0)]
                m = np.diag(md[:r]) + np.diag(off, 1) + np.diag(off, -1)
                tol = (yield ut[:r].T, m, rho) * rho / scale
                continue
            i, raw = int(checks[c]), raw_checks[c]
            continue
        r0 = r
        a = abs(res[i])
        if a >= _PIVOT_ALPHA * b:
            piv = [(i, res)]
        else:
            raw_j = sampled[j] = new_row(j)
            if raw_j is None:
                return
            scale = max(scale, float(np.abs(raw_j).max()))
            res_j = residual(raw_j[None, :], [j])[0]
            sigma = float(np.abs(np.delete(res_j, j)).max(initial=0.0))
            if a * sigma >= _PIVOT_ALPHA * b * b:
                piv = [(i, res)]
            elif abs(res_j[j]) >= _PIVOT_ALPHA * sigma:
                piv = [(j, res_j)]
            else:
                piv = [(i, res), (j, res_j)]
        if r + len(piv) > max_rank:
            return
        if r + len(piv) > len(ut):   # copy the filled rows; pages never written cost no RSS
            grown = np.empty((min(2 * len(ut), max_rank), n), dtype=ut.dtype)
            grown[:r] = ut[:r]
            ut = grown
        for p, row in piv:
            ut[r] = row
            pivot[p] = True
            sampled.pop(p, None)
            r += 1
        if len(piv) == 1:
            md[r0] = 1.0 / piv[0][1][piv[0][0]]
        else:
            (p, rp), (q, rq) = piv
            off = 0.5 * (rp[q] + rq[p])
            det = rp[p] * rq[q] - off * off
            md[r0], md[r0 + 1], mo[r0] = rq[q] / det, rp[p] / det, -off / det
        grow = np.abs(ut[r0:r]).max(axis=0)
        grow[pivot] = -1.0
        i = int(np.argmax(grow))
        raw = new_row(i)
        if raw is None:
            return


def _low_rank(fac, grid, left, right):
    """(V, l1, rho) for a factorization (U, M, rho) of F ~ U M U^T.

    V = P1 M P2^T is the (2, len(z1), len(z2)) K15/G7 stack, P_i the phase
    sums of U on the ``left`` and ``right`` axes (``_project``); ``right is
    left`` reuses the left one.
    l1 = (w15^T |U|) |M| (|U|^T w15), the round-off scale of the
    contracted factors, costs O(N r); it bounds the weighted L1 norm
    w15^T |F| w15 from above apart from the truncation, which rho (the
    largest residual entry on the sampled non-pivot rows) accounts for.
    """
    u, m, rho = fac
    p1 = _project(grid, left, u)
    p2 = p1 if right is left else _project(grid, right, u)
    w15 = grid[1]
    a = sum(np.abs(u[s]).T @ w15[s] for s in _node_slices(u.shape[0], u.shape[1]))
    return p1 @ (m @ p2.transpose(0, 2, 1)), float(a @ np.abs(m) @ a), rho


def _dense(rows: Callable, grid, left, right):
    """The trivial factorization U = F, M = I: (V, l1, 0), V as in ``_low_rank``.

    F is streamed in row blocks of at most ``BLOCK_VALUES`` values, whose
    ``_phase_sums`` on the left axis (2 x len(z1) x N) one ``_project`` on
    the right axis turns into V.  All N^2 envelope values are evaluated,
    so the 2-D rule allows this only up to ``DENSE_MAX_VALUES``.
    """
    w15 = grid[1]
    n, n1 = w15.size, left[0].size
    lf = np.zeros((2, n1, n), dtype=complex)
    l1 = 0.0
    for s in _node_slices(n, n):
        blk = rows(s)
        lf += _phase_sums(grid, left, s, blk)
        l1 += float(w15[s] @ (np.abs(blk) @ w15))
    p = _project(grid, right, lf.reshape(2 * n1, n).T)
    return np.stack([p[0, :, :n1].T, p[1, :, n1:].T]), l1, 0.0


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
    factorizations: dict | None = None,
):
    """Batched 2-D evaluation over a grid of detector-position pairs.

    One panelization, shared by both axes and valid for every z in either
    batch, is built.  Per refinement level, ``joint_envelope(k, omega_k)``
    gets that level's nodes and their omega(k), for any per-node factors,
    and returns ``rows(idx)``, the rows F[idx, :] (an index array or a
    slice) of the envelope matrix F on those nodes.  F must be symmetric
    for the low-rank path; real rows are factored in real arithmetic.  F
    is cross-approximated as U M U^T (see ``_symmetric_cross``), and
    every grid value comes from one contraction P1 M P2^T, with P_i the
    K15 (or G7) phase sums of U on axis i (``_project``); the G7 estimate
    reads the rows of U at the Gauss nodes.  The phase factors are formed
    and contracted in node blocks of ``BLOCK_VALUES``, and an axis equal
    to the other (same z values and t) is projected once.  The truncation
    bound rho * (sum w15)^2 is added to every point's error, which is at
    least the round-off scale of the target.
    When that bound alone misses the error target, the cross is continued
    until rho falls by target / (2 * bound), and a factorization it
    returns replaces the stored one.  When F has no low-rank form (rank
    above min(N / 10, ``MAX_CROSS_RANK``) on N nodes per axis, or a
    non-symmetric envelope), or the truncation bound still misses the
    target, the level uses the dense envelope (the trivial factorization
    U = F, M = I) if N^2 is at most ``DENSE_MAX_VALUES``, else raises
    QuadratureError naming the rank and N.  Memory is O((r + checks) N)
    plus one block of ``BLOCK_VALUES`` on the low-rank path, and
    O(len(z1) N) plus one block on the dense one.  Returns
    (values, errors, panels_per_axis) with values shaped
    (len(z1_values), len(z2_values)).  Sharing the panels and the
    factorization keeps detector exchange an exact symmetry of the rule
    for a symmetric envelope.

    F depends only on the envelope and the nodes, not on z or t, so a
    caller that scans one envelope on one domain at several (t1, t2) can
    pass one ``factorizations`` dict to all of its scans.  It maps a
    level's breakpoints (``breaks.tobytes()``) to that level's ``_Cross``
    (U, M, rho), or to None when F has no low-rank form; a level already
    in the dict is not factored again.  The choice between the low-rank
    and the dense path is still made per scan, against that scan's error
    target.

    ``_adapt`` refines the grid as the 1-D rule refines its batch, for up
    to ``SCAN2D_MAX_LEVELS`` levels within ``MAX_PANELS_AXIS`` panels per axis.
    """
    z1_values, z2_values = (np.atleast_1d(np.asarray(z, dtype=float))
                            for z in (z1_values, z2_values))
    left = (z1_values, t1)
    right = left if t1 == t2 and np.array_equal(z1_values, z2_values) else (z2_values, t2)
    store = {} if factorizations is None else factorizations

    def contract(fac, grid):
        """The low-rank (V, truncation bound, noise, target) of ``fac``."""
        v, l1, rho = _low_rank(fac, grid, left, right)
        noise = ROUNDOFF_FACTOR * l1
        return v, rho * float(grid[1].sum()) ** 2, noise, _target(v[0], rel_tol, noise)

    def level(breaks, grid):
        k = grid[0]
        rows = joint_envelope(k, grid[3])
        key = breaks.tobytes()
        if key not in store:
            # the cross samples the rows nearest to points one initial panel
            # apart, so no envelope feature the panels resolve falls between them
            edges = np.asarray(domain, dtype=float)
            width = _initial_width(edges[-1] - edges[0], max_width)
            check_at = np.arange(edges[0] + 0.5 * width, edges[-1], width)
            checks = _sorted_unique(np.minimum(np.searchsorted(k, check_at), k.size - 1))
            store[key] = _symmetric_cross(rows, checks)
        reached = f"no symmetric cross of rank <= {min(k.size // 10, MAX_CROSS_RANK)}"
        if store[key] is not None:
            v, trunc, noise, target = contract(store[key], grid)
            if trunc > target and (fac := store[key].refine(0.5 * target / trunc)) is not None:
                store[key] = fac
                v, trunc, noise, target = contract(fac, grid)
            if trunc <= target:
                return v[0], np.abs(v[0] - v[1]) + trunc, noise
            reached = (f"cross rank {store[key][0].shape[1]} leaves truncation "
                       f"{trunc:.2e} above target {target:.2e}")
        if k.size ** 2 > DENSE_MAX_VALUES:
            raise QuadratureError(
                f"N = {k.size} nodes per axis: {reached}, and N^2 > DENSE_MAX_VALUES",
                QuadResult(0j, np.inf, (len(breaks) - 1) ** 2))
        v, l1, _ = _dense(rows, grid, left, right)
        return v[0], np.abs(v[0] - v[1]), ROUNDOFF_FACTOR * l1

    return _adapt(level, d, domain, [left, right], rel_tol, max_width,
                  SCAN2D_MAX_LEVELS, MAX_PANELS_AXIS)
