"""Cross-section eigenvalue spectra: cutoff masses and mode profiles.

The transverse problem is the Dirichlet Laplacian on the cross section;
its eigenvalues are the squared cutoff masses m_n^2 that enter the axial
dispersion relation, and its eigenfunctions v_n(x, y) are the transverse
mode profiles.  Only Dirichlet (TM-class) modes are computed.

Two solvers are provided: closed-form spectra for rectangles and disks,
and a 5-point finite-difference discretization with a Lanczos solve on
the factored inverse of one colour of the lattice for arbitrary raster
masks.  Every returned spectrum holds one row of samples per mode
on its nodes, with discrete L2 quadrature weights, so the orthonormality
and completeness checks are weighted matrix products.

scipy is imported where it is used: scipy.sparse and its solver and
graph packages by the lattice functions, scipy.special by closed-form disk
spectra.  Importing this module, and with it the CLI, loads numpy only;
the first FD solve of a process pays about 0.35 s for those imports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rectangle",
    "Disk",
    "Raster",
    "ModeSpectrum",
    "UnsupportedShapeError",
    "ModeSolverError",
    "analytic_spectrum",
    "fd_spectrum",
    "check_completeness",
    "load_raster",
]

J01 = 2.4048255576957724  # first zero of J_0: the lowest disk mass is J01 / radius
RESIDUAL_TOL = 1e-8      # relative residual contract for the iterative solver
ITERATION_CAP = 10_000
DEGENERACY_RTOL = 1e-8   # eigenvalues this close (relative) form one cluster


class UnsupportedShapeError(ValueError):
    pass


class ModeSolverError(RuntimeError):
    pass


def _check_extent(length: float, what: str = "rectangle sides", root: float = np.pi) -> None:
    """Reject a side (a radius with root J01, a lattice spacing with root 2, whose
    (2/h)^2 is the 5-point diagonal) unless it and (root/length)^2 are finite and > 0."""
    with np.errstate(over="ignore", divide="ignore"):
        term = root**2 / np.float64(length) ** 2
    if not (length > 0 and 0 < term < np.inf):
        raise ValueError(f"{what} must be finite and positive, as must ({root:.7g}/L)^2, "
                         f"got L = {length!r}")


@dataclass(frozen=True)
class Rectangle:
    a: float
    b: float

    def __post_init__(self):
        _check_extent(self.a)
        _check_extent(self.b)


@dataclass(frozen=True)
class Disk:
    radius: float

    def __post_init__(self):
        _check_extent(self.radius, "disk radius", J01)


@dataclass(frozen=True)
class Raster:
    """Boolean membership mask on a square lattice with the given spacing."""

    mask: np.ndarray
    spacing: float

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2 or not mask.any():
            raise ValueError("raster mask must be a non-empty 2-D boolean grid")
        _check_extent(self.spacing, "lattice spacing", 2.0)
        num = _connected_regions(mask)
        if num != 1:
            raise ValueError(f"raster mask must be one connected region, found {num}")
        object.__setattr__(self, "mask", mask)


CrossSection = Rectangle | Disk | Raster


@dataclass(frozen=True)
class ModeSpectrum:
    """Lowest modes of a cross section: row n of ``samples`` is mode n + 1 on
    the nodes (node_x, node_y), whose weights give the discrete L2 product."""

    cutoff_masses: np.ndarray
    samples: np.ndarray       # (modes, nodes), C order
    labels: tuple[str, ...]
    node_x: np.ndarray
    node_y: np.ndarray
    weights: np.ndarray
    resolution: float

    def gram(self) -> np.ndarray:
        return (self.samples * self.weights) @ self.samples.T

    def orthonormality_defect(self) -> float:
        return float(np.abs(self.gram() - np.eye(len(self.labels))).max())

    def degenerate_clusters(self, rel_tol: float = DEGENERACY_RTOL) -> np.ndarray:
        """Cluster number of each mode, counted from 0: a mode joins the cluster
        of the mode before it when their cutoff masses agree to rel_tol."""
        m = self.cutoff_masses
        return np.concatenate([[0], np.cumsum(np.abs(np.diff(m)) > rel_tol * m[1:])])


def _fix_signs(samples: np.ndarray) -> np.ndarray:
    """Make each row's first sample above noise level positive, in place."""
    mag = np.abs(samples)
    first = (mag > 1e-12 * mag.max(axis=1, keepdims=True)).argmax(axis=1)
    samples[samples[np.arange(len(samples)), first] < 0] *= -1.0
    return samples


# ----------------------------------------------------------------------
# closed-form spectra
# ----------------------------------------------------------------------

def _ramps(n: np.ndarray) -> np.ndarray:
    """0, 1, ..., n_i - 1 for each entry n_i of n, concatenated."""
    return np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)


def _rectangle_spectrum(cs: Rectangle, count: int):
    a, b = cs.a, cs.b
    # the p q - 1 pairs (p', q') <= (p, q) other than (p, q) lie strictly below it,
    # so only p q <= count can be among the lowest `count`; ties in (p, q) order
    n = count // np.arange(1, count + 1)
    p, q = np.repeat(np.arange(1, count + 1), n), _ramps(n) + 1
    m2 = np.pi**2 * (p**2 / a**2 + q**2 / b**2)
    pick = np.lexsort((q, p, m2))[:count]
    m2, p, q = m2[pick], p[pick], q[pick]

    nx, ny = max(64, 4 * int(p.max())), max(64, 4 * int(q.max()))
    hx, hy = a / nx, b / ny
    X, Y = np.meshgrid(hx * np.arange(1, nx), hy * np.arange(1, ny), indexing="ij")
    node_x, node_y = X.ravel(), Y.ravel()
    weights = np.full(node_x.size, hx * hy)

    samples = (2.0 / np.sqrt(a * b) * np.sin(p[:, None] * np.pi * node_x / a)
               * np.sin(q[:, None] * np.pi * node_y / b))
    return ModeSpectrum(np.sqrt(m2), _fix_signs(samples), tuple(map("({},{})".format, p, q)),
                        node_x, node_y, weights, max(hx, hy))


def _disk_spectrum(cs: Disk, count: int):
    from scipy.special import jn_zeros, jv
    R = cs.radius
    # j_{l,s} grows with l and s, and every order l >= 1 holds a cos and a sin mode,
    # so the s (2 l + 1) modes of order <= l and zero number <= s lie at or below
    # j_{l,s}: one among the lowest `count` needs s (2 l + 1) <= count + 1
    n = (count + 1) // np.arange(1, count + 2, 2)    # zero numbers per order l
    l = np.repeat(np.arange(n.size), 2 * n)
    s, parity = np.divmod(_ramps(2 * n), 2)
    s += 1
    j = np.repeat(np.concatenate([jn_zeros(ell, k) for ell, k in enumerate(n)]), 2)
    j[(l == 0) & (parity == 1)] = np.inf   # order 0 has no sin partner
    pick = np.lexsort((parity, s, l, j))[:count]
    j, l, s, parity = j[pick], l[pick], s[pick], parity[pick]

    n_theta = max(64, 4 * int(l.max()) + 8)
    n_r = 64
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * R * (gl_x + 1.0)
    wr = 0.5 * R * gl_w
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    Rg, Tg = np.meshgrid(r, theta, indexing="ij")
    node_x = (Rg * np.cos(Tg)).ravel()
    node_y = (Rg * np.sin(Tg)).ravel()
    weights = (wr[:, None] * Rg * (2.0 * np.pi / n_theta)).ravel()

    # J_l varies with r only and cos, sin with theta only: evaluated per axis, not per node
    l3 = l[:, None, None]
    radial = jv(l3, j[:, None, None] * r[:, None] / R)
    angular = np.where(parity[:, None, None] == 0, np.cos(l3 * theta), np.sin(l3 * theta))
    # R stays outside the square root: R**2 overflows for R near the largest allowed
    norm = R * np.sqrt(np.where(l == 0, 2.0 * np.pi, np.pi) * 0.5 * jv(l + 1, j) ** 2)
    samples = (radial * angular / norm[:, None, None]).reshape(count, -1)
    labels = tuple(map("({},{},{})".format, l, s, np.array(["cos", "sin"])[parity]))
    res = max(R / n_r, 2.0 * np.pi * R / n_theta)
    return ModeSpectrum(j / R, _fix_signs(samples), labels, node_x, node_y, weights, res)


def analytic_spectrum(cs: CrossSection, count: int) -> ModeSpectrum:
    """Lowest `count` Dirichlet modes of a rectangle or disk, closed form.

    Rectangle: m^2_{pq} = pi^2 (p^2/a^2 + q^2/b^2), p,q >= 1, with
    product-sine eigenfunctions.  Disk: m_{ls} = j_{l,s}/radius with
    Bessel J_l eigenfunctions; l >= 1 levels carry both angular parities.
    Degenerate eigenvalues appear with multiplicity, ordered (p, q)
    lexicographic within a cluster.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(cs, Rectangle):
        return _rectangle_spectrum(cs, count)
    if isinstance(cs, Disk):
        return _disk_spectrum(cs, count)
    raise UnsupportedShapeError(
        "no closed-form spectrum for raster sections; use fd_spectrum")


# ----------------------------------------------------------------------
# finite-difference solver
# ----------------------------------------------------------------------

def _rasterize(cs: CrossSection, spacing: float):
    """Interior-node mask plus lattice origin for rectangle/disk/raster."""
    if spacing is None and isinstance(cs, Raster):
        spacing = cs.spacing
    if spacing is None:
        raise ValueError("fd_spectrum needs a spacing for analytic shapes")
    _check_extent(spacing, "lattice spacing", 2.0)
    if isinstance(cs, Raster):
        return cs.mask, 0.0, 0.0, spacing
    if isinstance(cs, Rectangle):
        eps = 1e-9 * spacing
        nx = int(np.floor((cs.a - eps) / spacing))
        ny = int(np.floor((cs.b - eps) / spacing))
        mask = np.ones((nx, ny), dtype=bool)
        return mask, spacing, spacing, spacing
    if isinstance(cs, Disk):
        n = int(np.floor(cs.radius / spacing))
        idx = spacing * np.arange(-n, n + 1)
        X, Y = np.meshgrid(idx, idx, indexing="ij")
        mask = X**2 + Y**2 < cs.radius**2
        return mask, -n * spacing, -n * spacing, spacing
    raise UnsupportedShapeError(f"cannot rasterize {type(cs).__name__}")


def _lattice_edges(mask: np.ndarray):
    """Number of nodes on the mask and its 4-neighbour pairs (src, dst), each pair once."""
    n = int(mask.sum())
    idx = np.full(mask.shape, -1, dtype=np.int64)
    idx[mask] = np.arange(n)
    down = mask[:-1, :] & mask[1:, :]
    right = mask[:, :-1] & mask[:, 1:]
    src = np.concatenate([idx[:-1, :][down], idx[:, :-1][right]])
    dst = np.concatenate([idx[1:, :][down], idx[:, 1:][right]])
    return n, src, dst


def _connected_regions(mask: np.ndarray) -> int:
    """Number of 4-connected regions of the mask."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    n, src, dst = _lattice_edges(mask)
    graph = sp.coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    return int(connected_components(graph, directed=False)[0])


def _red_black_block(mask: np.ndarray, h: float, black: np.ndarray):
    """B of the 5-point A = [[d I, B], [B^T, d I]]: red rows by black columns in
    node order, -1/h^2 per lattice edge (every edge joins a red and a black node)."""
    import scipy.sparse as sp
    _, src, dst = _lattice_edges(mask)
    pos = np.where(black, np.cumsum(black), np.cumsum(~black)) - 1   # index in its colour
    red_end, black_end = pos[np.where(black[src], (dst, src), (src, dst))]
    return sp.csr_matrix((np.full(src.size, -1.0 / h**2), (red_end, black_end)),
                         shape=(np.count_nonzero(~black), np.count_nonzero(black)))


def _block_residual(B, d: float, lam: np.ndarray, v_red: np.ndarray, v_black: np.ndarray):
    """||A v - lam v|| / lam per column of v = (v_red, v_black), A = [[d I, B], [B^T, d I]]."""
    return np.hypot(np.linalg.norm(B @ v_black + (d - lam) * v_red, axis=0),
                    np.linalg.norm(B.T @ v_red + (d - lam) * v_black, axis=0)) / lam


def fd_spectrum(cs: CrossSection, count: int, spacing: float | None = None) -> ModeSpectrum:
    """Smallest `count` Dirichlet eigenpairs of the 5-point discretization.

    Eigenvalues converge O(spacing^2) for lattice-aligned boundaries.  The
    iterative solve (Lanczos on the inverse, see below) must deliver a
    relative residual ||A v - lam v|| / lam below 1e-8 for every pair on
    the full lattice, otherwise a ModeSolverError carries the residual
    report; silent inaccuracy (a NaN residual included) is not an option.
    Lanczos stops at 1e-4 of that contract, not at machine precision: its
    stop bounds the residual on S^-1, which the lift to A can amplify up to
    d/lam = 4/(h^2 lam) (at 1e-2, disks of 180 cells per radius missed it).

    The solve runs on one colour of the lattice.  The 5-point lattice is
    bipartite (colour a node by the parity of i + j) and every diagonal
    entry is d = 4/h^2, so with red rows first A = [[d I, B], [B^T, d I]].
    Eliminating the red nodes from A v = lam v gives S v_b = mu v_b with
    the Schur complement S = d I - B^T B / d, mu = lam (2 - lam/d) and
    v_r = -B v_b / (d - lam).  The reduction is exact: every eigenvalue
    lam < d has v_b != 0 (v_b = 0 forces d v_r = lam v_r), and mu is
    increasing in lam on [0, d], so the smallest eigenpairs of S are those
    of A, recovered with the cancellation-free root
    lam = mu / (1 + sqrt(1 - mu/d)).  The black colour is the smaller
    class, so S has at most half the unknowns of A and `count` must stay
    below its size.

    S is factored once per call: SuperLU with a symmetric minimum-degree
    ordering of S + S^T, symmetric mode and no pivoting, stable because S,
    a Schur complement of the symmetric positive definite A, is symmetric
    positive definite itself; the symmetric ordering nearly halves the
    fill of the default column ordering.  A is never assembled: B, built
    from the lattice edges, is dropped once S is formed, and S once it is
    factored.  ARPACK runs in standard mode on S^-1, the factor's solve,
    for its largest eigenvalues 1/mu, so only the factor, the node and
    colour arrays and ARPACK's basis are alive in the solve.  B is built
    again after the factor is freed, for the lift and the block residual.

    Single-vector Lanczos holds one direction per eigenvalue, so a mode
    orthogonal to the start vector enters only through round-off and a
    degenerate pair can lose a member.  The start sin(sqrt(2) j), j = 1..nb,
    has no lattice symmetry, and one guard pair beyond `count` is solved
    and dropped: a measured mitigation, not a guarantee.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    if count < 1:
        raise ValueError("count must be >= 1")
    # a Raster was checked for connectivity when it was made; rectangle and
    # disk lattices are connected by construction
    mask, x0, y0, h = _rasterize(cs, spacing)
    r_any = np.nonzero(mask.any(axis=1))[0]
    c_any = np.nonzero(mask.any(axis=0))[0]
    if r_any.size < 16 or c_any.size < 16:
        raise ValueError(
            f"spacing {h} does not resolve the domain: interior lattice is "
            f"{r_any.size} x {c_any.size}, need >= 16 per side")
    rows_i, cols_i = np.nonzero(mask)
    n = rows_i.size
    odd = (rows_i + cols_i) % 2 == 1
    black = odd if 2 * np.count_nonzero(odd) <= n else ~odd
    nb = int(np.count_nonzero(black))
    if count >= nb:
        raise ValueError(
            f"requested {count} modes but the smaller colour class of the lattice "
            f"has only {nb} nodes; count must be below {nb}")

    d = 4.0 / h**2
    B = _red_black_block(mask, h, black)
    S = (sp.identity(nb, format="csr") * d - (B.T @ B) / d).tocsc()
    del B   # only S and the node and colour arrays are alive while SuperLU factors
    lu = spla.splu(S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    del S
    v0 = np.sin(np.sqrt(2.0) * np.arange(1, nb + 1))   # no lattice symmetry
    try:   # the largest eigenvalues 1/mu of S^-1, plus one guard pair
        theta, v_black = spla.eigsh(spla.LinearOperator((nb, nb), matvec=lu.solve, dtype=float),
                                    min(count + 1, nb - 1), which="LA", v0=v0,
                                    maxiter=ITERATION_CAP, tol=1e-4 * RESIDUAL_TOL)
    except spla.ArpackNoConvergence as exc:
        raise ModeSolverError(
            f"eigensolver failed to converge within {ITERATION_CAP} iterations: {exc}"
        ) from exc
    del lu   # the factor is freed before B is built again
    order = np.argsort(theta)[::-1][:count]
    mu, v_black = 1.0 / theta[order], v_black[:, order]

    # a mu at (or round-off above) d has no eigenvalue below d: its lam or
    # lifted vector turns NaN and the residual contract reports the pair
    B = _red_black_block(mask, h, black)
    with np.errstate(invalid="ignore", divide="ignore"):
        eigvals = mu / (1.0 + np.sqrt(1.0 - mu / d))
        eigvecs = np.empty((n, count))
        eigvecs[black] = v_black
        eigvecs[~black] = -(B @ v_black) / (d - eigvals)
        eigvecs /= np.linalg.norm(eigvecs, axis=0)

    res = _block_residual(B, d, eigvals, eigvecs[~black], eigvecs[black])
    bad = np.nonzero(~(res <= RESIDUAL_TOL))[0]
    if bad.size:
        report = "; ".join(f"pair {i + 1}: lam={eigvals[i]:.6e} residual={res[i]:.3e}"
                           for i in bad)
        raise ModeSolverError(f"residual contract {RESIDUAL_TOL} violated: {report}")

    # rows v / h have unit discrete L2 norm: sum h^2 (v / h)^2 = 1
    samples = _fix_signs(np.ascontiguousarray(eigvecs.T) / h)
    return ModeSpectrum(np.sqrt(eigvals), samples, ("fd",) * count,
                        x0 + rows_i * h, y0 + cols_i * h, np.full(n, h * h), h)


# ----------------------------------------------------------------------
# completeness and raster I/O
# ----------------------------------------------------------------------

def check_completeness(spectrum: ModeSpectrum, samples: np.ndarray) -> float:
    """L2 norm of (samples - projection onto the computed modes).

    The test function must vanish on the boundary and be sampled on the
    spectrum's nodes.  Nested mode sets give monotonically decreasing
    residuals.
    """
    u = np.asarray(samples, dtype=float)
    if u.shape != spectrum.node_x.shape:
        raise ValueError("samples must be aligned with the spectrum nodes")
    res = u - (spectrum.samples @ (spectrum.weights * u)) @ spectrum.samples
    return float(np.sqrt(np.sum(spectrum.weights * res * res)))


def load_raster(path) -> Raster:
    """Read a raster mask file: a `spacing <value>` header line, then rows
    of 0/1 characters.  Every error message starts with `path:line`."""
    with open(path) as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}:1: raster file is empty")
    (head_no, head), *body = lines
    words = head.replace("=", " ").split()
    if len(words) != 2 or words[0].lower() != "spacing":
        raise ValueError(f"{path}:{head_no}: first line must be 'spacing <value>', got {head!r}")
    try:
        spacing = float(words[1])
        _check_extent(spacing, "lattice spacing", 2.0)
    except ValueError as exc:
        raise ValueError(f"{path}:{head_no}: bad spacing {words[1]!r}: {exc}") from None
    width = len(body[0][1]) if body else 0
    for no, cells in body:
        if len(cells) != width:
            raise ValueError(f"{path}:{no}: ragged row of {len(cells)} cells, expected {width}")
        if set(cells) - {"0", "1"}:
            raise ValueError(f"{path}:{no}: rows must contain only 0/1, got {cells!r}")
    mask = np.frombuffer("".join(c for _, c in body).encode(), dtype=np.uint8) == ord("1")
    try:
        return Raster(mask.reshape(len(body), width), spacing)
    except ValueError as exc:
        raise ValueError(f"{path}:{body[0][0] if body else head_no}: {exc}") from None
