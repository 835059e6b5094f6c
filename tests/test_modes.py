import os
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import bisect
from scipy.special import j0, jn_zeros

from wgcorr import (
    Disk,
    ModeSolverError,
    Raster,
    Rectangle,
    UnsupportedShapeError,
    analytic_spectrum,
    check_completeness,
    fd_spectrum,
    load_raster,
    modes,
)


def laplacian(mask, h):
    """Oracle: the 5-point Dirichlet Laplacian on the mask, the sum of 1-D
    second differences on the bounding grid with the outside nodes deleted."""
    def second_difference(m):
        return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m)) / h**2
    nx, ny = mask.shape
    full = (sp.kron(second_difference(nx), sp.identity(ny))
            + sp.kron(sp.identity(nx), second_difference(ny))).tocsr()
    inside = mask.ravel()
    return full[inside][:, inside]


def bessel_j0_first_zero():
    """Independent oracle: bisection on J0 over a bracketing interval."""
    return bisect(j0, 2.0, 3.0, xtol=1e-12)


# ----------------------------------------------------------------------
# closed-form spectra
# ----------------------------------------------------------------------

def test_square_fundamental_eigenvalue():
    ms = analytic_spectrum(Rectangle(np.pi, np.pi), count=1)
    assert ms.cutoff_masses[0] ** 2 == pytest.approx(2.0, abs=1e-12)


def test_square_fundamental_satisfies_pde():
    # substitute the sampled mode into the eigenvalue equation with a
    # 5-point Laplacian: residual should be O(h^2), small against m^2 v
    ms = analytic_spectrum(Rectangle(np.pi, np.pi), count=1)
    m2 = ms.cutoff_masses[0] ** 2
    h = ms.resolution
    n = int(round(np.pi / h)) - 1
    v = ms.samples[0].reshape(n, n)
    pad = np.zeros((n + 2, n + 2))
    pad[1:-1, 1:-1] = v
    lap = (pad[:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, :-2] + pad[1:-1, 2:]
           - 4 * pad[1:-1, 1:-1]) / h**2
    resid = lap + m2 * v
    assert np.abs(resid).max() < 2 * m2 * h**2 * np.abs(v).max()


def test_disk_fundamental_against_bisection_oracle():
    ms = analytic_spectrum(Disk(1.0), count=1)
    assert ms.cutoff_masses[0] == pytest.approx(bessel_j0_first_zero(), abs=1e-10)
    assert ms.cutoff_masses[0] == pytest.approx(2.404826, abs=1e-6)


def test_two_by_one_rectangle_low_eigenvalues():
    # oracle: enumerate p^2/4 + q^2 for small p, q and sort
    cand = sorted(p * p / 4 + q * q for p in range(1, 6) for q in range(1, 6))
    ms = analytic_spectrum(Rectangle(2 * np.pi, np.pi), count=2)
    np.testing.assert_allclose(ms.cutoff_masses**2, cand[:2], atol=1e-12)
    np.testing.assert_allclose(ms.cutoff_masses**2, [1.25, 2.0], atol=1e-12)


def test_square_degenerate_pair_ordering():
    ms = analytic_spectrum(Rectangle(np.pi, np.pi), count=4)
    # (1,2) and (2,1) share m^2 = 5 and come in lexicographic order
    assert ms.degenerate_clusters().tolist() == [0, 1, 1, 2]
    assert ms.labels[1:3] == ("(1,2)", "(2,1)")


def test_analytic_orthonormality():
    for cs in (Rectangle(np.pi, 1.7), Disk(1.3)):
        ms = analytic_spectrum(cs, count=8)
        assert ms.orthonormality_defect() < 1e-8


def test_spectra_sorted_and_positive():
    ms = analytic_spectrum(Disk(2.0), count=10)
    m = ms.cutoff_masses
    assert (m > 0).all()
    assert (np.diff(m) >= -1e-12).all()


def test_disk_enumeration_bound_keeps_the_lowest_modes():
    # oracle: count + 1 zeros of every order l <= count, well past the bound
    # 2 l <= count, s <= count of the enumeration; l >= 1 is a cos/sin pair
    R = 1.3
    for count in range(1, 21):
        zeros = np.concatenate([np.repeat(jn_zeros(ell, count + 1), 2 if ell else 1)
                                for ell in range(count + 1)])
        np.testing.assert_array_equal(analytic_spectrum(Disk(R), count).cutoff_masses,
                                      np.sort(zeros)[:count] / R)


def test_elongated_rectangle_samples_each_axis_on_its_own_grid():
    # a 20 x 1 section reaches p = 40 but only q = 2 in its lowest 60 modes:
    # 64 cells across b, not 4 * 40 = 160
    ms = analytic_spectrum(Rectangle(20.0, 1.0), count=60)
    assert np.unique(ms.node_x).size == 159 and np.unique(ms.node_y).size == 63
    assert ms.samples.shape == (60, 159 * 63)
    assert ms.orthonormality_defect() <= 1e-13


def test_domain_monotonicity():
    small = analytic_spectrum(Rectangle(np.pi, np.pi), count=6).cutoff_masses
    big = analytic_spectrum(Rectangle(1.3 * np.pi, np.pi), count=6).cutoff_masses
    assert (big <= small + 1e-12).all()


def test_sign_convention_first_sample_positive():
    for ms in (analytic_spectrum(Rectangle(2.0, 1.0), count=5),
               analytic_spectrum(Disk(1.0), count=5)):
        for samples in ms.samples:
            nz = np.nonzero(np.abs(samples) > 1e-12 * np.abs(samples).max())[0]
            assert samples[nz[0]] > 0


def test_raster_requires_fd_solver():
    r = Raster(np.ones((20, 20), dtype=bool), 0.05)
    with pytest.raises(UnsupportedShapeError):
        analytic_spectrum(r, count=1)


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------

def test_fd_square_within_one_percent():
    ms = fd_spectrum(Rectangle(np.pi, np.pi), count=1, spacing=np.pi / 64)
    m2 = ms.cutoff_masses[0] ** 2
    assert abs(m2 - 2.0) / 2.0 < 0.01


def test_fd_richardson_ratio():
    e = []
    for spacing in (np.pi / 32, np.pi / 64):
        ms = fd_spectrum(Rectangle(np.pi, np.pi), count=1, spacing=spacing)
        e.append(abs(ms.cutoff_masses[0] ** 2 - 2.0))
    assert 3.0 < e[0] / e[1] < 5.0


def test_fd_disk_within_two_percent():
    ms = fd_spectrum(Disk(1.0), count=1, spacing=1 / 64)
    oracle = bessel_j0_first_zero()
    assert abs(ms.cutoff_masses[0] - oracle) / oracle < 0.02


def test_fd_orthonormality_within_tolerance():
    ms = fd_spectrum(Rectangle(np.pi, np.pi), count=4, spacing=np.pi / 40)
    assert ms.orthonormality_defect() < 10 * ms.resolution**2


def test_fd_eigenvalue_ordering_and_degeneracy():
    ms = fd_spectrum(Rectangle(np.pi, np.pi), count=3, spacing=np.pi / 48)
    m2 = ms.cutoff_masses**2
    assert m2[0] < m2[1] <= m2[2] * (1 + 1e-12)
    # the (1,2)/(2,1) pair stays a degenerate cluster
    clusters = ms.degenerate_clusters(rel_tol=1e-6)
    assert clusters[1] == clusters[2] != clusters[0]


def discrete_rectangle_eigenvalues(nx, ny, h, count):
    """Oracle: exact eigenvalues of the 5-point Dirichlet Laplacian on an
    nx x ny interior lattice, lam_pq = (4/h^2)[sin^2(p pi/(2(nx+1)))
    + sin^2(q pi/(2(ny+1)))]."""
    sx = np.sin(np.arange(1, nx + 1) * np.pi / (2 * (nx + 1))) ** 2
    sy = np.sin(np.arange(1, ny + 1) * np.pi / (2 * (ny + 1))) ** 2
    return np.sort((4 / h**2) * (sx[:, None] + sy[None, :]).ravel())[:count]


def test_fd_matches_exact_discrete_spectrum():
    # the oracle is the discrete spectrum, so the solver (not the
    # discretization) is checked to round-off; unequal sides keep the
    # levels distinct
    nx, ny, h, count = 23, 37, 0.05, 8
    oracle = discrete_rectangle_eigenvalues(nx, ny, h, count)
    rect = fd_spectrum(Rectangle((nx + 1) * h, (ny + 1) * h), count=count, spacing=h)
    raster = fd_spectrum(Raster(np.ones((nx, ny), dtype=bool), h), count=count)
    for ms in (rect, raster):
        assert ms.samples[0].size == nx * ny
        np.testing.assert_allclose(ms.cutoff_masses**2, oracle, rtol=1e-10, atol=0)
        assert ms.orthonormality_defect() <= 1e-10
    np.testing.assert_allclose(raster.cutoff_masses, rect.cutoff_masses, rtol=1e-10, atol=0)


def test_fd_residual_contract_violation_reports_every_pair(monkeypatch):
    rect, count, h = Rectangle(1.0, 1.3), 3, 1 / 20
    lam = fd_spectrum(rect, count=count, spacing=h).cutoff_masses ** 2
    monkeypatch.setattr(modes, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(ModeSolverError) as exc:
        fd_spectrum(rect, count=count, spacing=h)
    msg = str(exc.value)
    assert msg.startswith("residual contract 1e-30 violated: pair 1: lam=")
    assert msg.count("; pair ") == count - 1
    for i, m2 in enumerate(lam, start=1):
        assert f"pair {i}: lam={m2:.6e} residual=" in msg


def test_fd_nonconvergence_raises_mode_solver_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                       np.empty(0), np.empty((0, 0)))
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(ModeSolverError, match="failed to converge within 10000 iterations"):
        fd_spectrum(Rectangle(1.0, 1.3), count=3, spacing=1 / 20)


def test_fd_nan_residual_is_a_contract_violation(monkeypatch):
    # nan > tol is False, so only `not res <= tol` catches a NaN residual
    def nan_vectors(op, k, **kwargs):
        return np.arange(1.0, k + 1), np.full((op.shape[0], k), np.nan)
    monkeypatch.setattr(spla, "eigsh", nan_vectors)
    with pytest.raises(ModeSolverError) as exc:
        fd_spectrum(Rectangle(1.0, 1.3), count=2, spacing=1 / 20)
    msg = str(exc.value)
    assert "pair 1: lam=" in msg and "pair 2: lam=" in msg
    assert msg.count("residual=nan") == 2


def test_fd_count_below_smaller_colour_class():
    # 17 x 17 nodes: 145 with i + j even, 144 with i + j odd
    r = Raster(np.ones((17, 17), dtype=bool), 0.05)
    with pytest.raises(ValueError, match="smaller colour class of the lattice has only 144 "
                                         "nodes; count must be below 144"):
        fd_spectrum(r, count=144)
    assert len(fd_spectrum(r, count=20).samples) == 20


@pytest.mark.parametrize("h", [np.inf, -np.inf, np.nan, 0.0, -0.05, 1e-200, 1e200])
def test_bad_spacing_rejected_at_once(h):
    # 1e-200 and 1e200 pass `h > 0` but 4/h^2 is inf or 0
    mask = np.ones((20, 20), dtype=bool)
    with pytest.raises(ValueError, match="lattice spacing must be finite and positive"):
        Raster(mask, h)
    with pytest.raises(ValueError, match="lattice spacing must be finite and positive"):
        fd_spectrum(Raster(mask, 0.05), count=1, spacing=h)
    with pytest.raises(ValueError, match="lattice spacing must be finite and positive"):
        fd_spectrum(Rectangle(1.0, 1.0), count=1, spacing=h)


def annulus_mask():
    i, j = np.mgrid[0:25, 0:25] - 12
    return (i**2 + j**2 < 12**2) & (i**2 + j**2 >= 5**2)


def l_mask():
    mask = np.ones((24, 24), dtype=bool)
    mask[12:, 12:] = False
    return mask


# an annulus with a hole, an odd x odd rectangle (colour classes of 196 and
# 195 nodes; an odd x even one has equal classes) and an L shape
@pytest.mark.parametrize("mask, h", [(annulus_mask(), 0.1),
                                     (np.ones((17, 23), dtype=bool), 0.07),
                                     (l_mask(), 0.05)],
                         ids=["annulus", "odd_rectangle", "l_shape"])
def test_fd_reduction_matches_dense_oracle(mask, h):
    assert 300 <= mask.sum() <= 600
    count = 12
    A = laplacian(mask, h)
    oracle = np.linalg.eigh(A.toarray())[0][:count]
    ms = fd_spectrum(Raster(mask, h), count=count)
    np.testing.assert_allclose(ms.cutoff_masses**2, oracle, rtol=1e-11, atol=0)
    V = ms.samples.T * h  # unit Euclidean norm
    res = np.linalg.norm(A @ V - V * oracle, axis=0) / oracle
    assert (res <= modes.RESIDUAL_TOL).all()


@pytest.mark.parametrize("mask, h", [(annulus_mask(), 0.1),
                                     (np.ones((17, 23), dtype=bool), 0.07),
                                     (l_mask(), 0.05)],
                         ids=["annulus", "odd_rectangle", "l_shape"])
def test_block_residual_matches_full_lattice_oracle(mask, h):
    # B from the lattice edges in the block form [[d I, B], [B^T, d I]] is the
    # full Laplacian with red nodes first; checked on vectors that are not
    # eigenvectors, so the residual is large and round-off cannot hide a term
    rows_i, cols_i = np.nonzero(mask)
    black = (rows_i + cols_i) % 2 == 1
    lam = np.array([1.0, 7.5, 40.0])
    V = np.random.default_rng(3).standard_normal((mask.sum(), lam.size))
    B = modes._red_black_block(mask, h, black)
    got = modes._block_residual(B, 4.0 / h**2, lam, V[~black], V[black])
    want = np.linalg.norm(laplacian(mask, h) @ V - V * lam, axis=0) / lam
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_fd_factors_with_only_the_schur_matrix_alive(monkeypatch):
    # at the factorization the traced heap holds S and the lattice's node
    # and colour arrays, not the full 5-point matrix or its red-black block
    seen = []
    splu = spla.splu

    def spy(S, *args, **kwargs):
        seen.append((tracemalloc.get_traced_memory()[0],
                     S.data.nbytes + S.indices.nbytes + S.indptr.nbytes))
        return splu(S, *args, **kwargs)
    monkeypatch.setattr(spla, "splu", spy)
    raster = Raster(np.ones((120, 90), dtype=bool), 0.05)
    tracemalloc.start()
    try:
        fd_spectrum(raster, count=4)
    finally:
        tracemalloc.stop()
    (traced, s_bytes), = seen
    assert traced <= 2 * s_bytes


def test_fd_eigensolve_runs_on_the_factor_alone(monkeypatch):
    # ARPACK gets S^-1 as an operator in standard mode, no shift and no
    # matrix, and S itself is freed before the eigensolve: the traced heap
    # at the call holds less than S did at the factorization
    seen = {}
    splu, eigsh = spla.splu, spla.eigsh

    def spy_splu(S, *args, **kwargs):
        seen["s_bytes"] = S.data.nbytes + S.indices.nbytes + S.indptr.nbytes
        return splu(S, *args, **kwargs)

    def spy_eigsh(op, k, **kwargs):
        seen["traced"] = tracemalloc.get_traced_memory()[0]
        seen["call"] = (op, k, kwargs)
        return eigsh(op, k, **kwargs)
    monkeypatch.setattr(spla, "splu", spy_splu)
    monkeypatch.setattr(spla, "eigsh", spy_eigsh)
    tracemalloc.start()
    try:
        fd_spectrum(Raster(np.ones((120, 90), dtype=bool), 0.05), count=4)
    finally:
        tracemalloc.stop()
    op, k, kwargs = seen["call"]
    assert isinstance(op, spla.LinearOperator)
    assert k == 5 and kwargs["which"] == "LA"
    assert not {"sigma", "OPinv", "M", "Minv"} & kwargs.keys()
    assert seen["traced"] < seen["s_bytes"]


# single-vector Lanczos from a start vector that is even under a lattice
# reflection never sees the odd modes but for round-off, and so dropped one
# member of a degenerate pair: the start vector has no lattice symmetry and
# one guard pair is solved beyond `count`
@pytest.mark.parametrize("cs, count, spacing", [(Rectangle(1.0, 1.0), 10, 1 / 17),
                                                (Rectangle(2.0, 1.0), 6, 1 / 30),
                                                (Rectangle(1.0, 1.0), 10, 1 / 21),
                                                (Rectangle(2.0, 1.0), 6, 1 / 25)],
                         ids=["square_17", "rect_2x1_30", "square_21", "rect_2x1_25"])
def test_fd_keeps_both_members_of_degenerate_pairs(cs, count, spacing):
    mask, _, _, h = modes._rasterize(cs, spacing)
    oracle = np.linalg.eigvalsh(laplacian(mask, h).toarray())[:count]
    ms = fd_spectrum(cs, count=count, spacing=spacing)
    np.testing.assert_allclose(ms.cutoff_masses**2, oracle, rtol=1e-10, atol=0)


@pytest.mark.parametrize("cs, spacing", [(Raster(np.ones((23, 37), dtype=bool), 0.05), None),
                                         (Disk(1.0), 1 / 24),
                                         (Raster(l_mask(), 0.05), None)],
                         ids=["rectangle_23x37", "disk", "l_raster"])
def test_fd_stop_meets_a_hundredth_of_the_residual_contract(cs, spacing):
    # Lanczos stops at a hundredth of the residual contract rather than at
    # machine precision; on the full lattice every returned pair still has a
    # relative residual ||A v - lam v|| / lam a hundred times inside it
    ms = fd_spectrum(cs, count=8, spacing=spacing)
    mask, _, _, h = modes._rasterize(cs, spacing)
    A = laplacian(mask, h)
    lam = ms.cutoff_masses**2
    V = ms.samples.T * h  # unit Euclidean norm
    res = np.linalg.norm(A @ V - V * lam, axis=0) / lam
    assert (res <= 1e-2 * modes.RESIDUAL_TOL).all()


def test_fd_disk_cos_sin_pairs_stay_one_cluster():
    # on the lattice the l = 1 cos/sin pair is exactly degenerate (C4 symmetry)
    ms = fd_spectrum(Disk(1.0), count=5, spacing=1 / 24)
    assert ms.degenerate_clusters()[:4].tolist() == [0, 1, 1, 2]


def test_fd_rejects_underresolved_domain():
    with pytest.raises(ValueError):
        fd_spectrum(Rectangle(1.0, 1.0), count=1, spacing=0.2)


def test_fd_rejects_disconnected_mask():
    mask = np.zeros((40, 40), dtype=bool)
    mask[2:18, 2:18] = True
    mask[22:38, 22:38] = True
    with pytest.raises(ValueError):
        Raster(mask, 0.05)


def test_raster_rejects_squares_touching_at_a_corner():
    # connectivity is 4-neighbour: a shared corner does not join two regions
    mask = np.zeros((40, 40), dtype=bool)
    mask[2:20, 2:20] = True
    mask[20:38, 20:38] = True
    with pytest.raises(ValueError, match="found 2"):
        Raster(mask, 0.05)


@pytest.mark.parametrize("call, message", [
    (lambda: Rectangle(0.0, 1.0), "rectangle sides must be positive"),
    (lambda: Disk(-1.0), "disk radius must be positive"),
    (lambda: Raster(np.zeros((20, 20), dtype=bool), 0.05),
     "raster mask must be a non-empty 2-D boolean grid"),
    (lambda: Raster(np.ones(20, dtype=bool), 0.05),
     "raster mask must be a non-empty 2-D boolean grid"),
    (lambda: analytic_spectrum(Rectangle(1.0, 1.0), count=0), "count must be >= 1"),
    (lambda: fd_spectrum(Rectangle(1.0, 1.0), count=1),
     "fd_spectrum needs a spacing for analytic shapes"),
    (lambda: fd_spectrum(object(), count=1, spacing=0.05), "cannot rasterize object"),
    (lambda: fd_spectrum(Rectangle(1.0, 1.0), count=0, spacing=0.05), "count must be >= 1"),
    (lambda: check_completeness(analytic_spectrum(Rectangle(1.0, 1.0), 2), np.zeros(3)),
     "samples must be aligned with the spectrum nodes"),
    (lambda: load_raster(os.devnull), f"{os.devnull}:1: raster file is empty"),
], ids=["rectangle_side", "disk_radius", "empty_mask", "flat_mask", "analytic_count",
        "fd_no_spacing", "fd_unknown_shape", "fd_count", "completeness_nodes", "empty_raster"])
def test_bad_input_fails_at_once(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, what, root, length", [
    (lambda: Rectangle(np.inf, 1.0), "rectangle sides", "3.141593", "inf"),
    (lambda: Rectangle(1e200, 1.0), "rectangle sides", "3.141593", "1e+200"),
    (lambda: Rectangle(1.0, 1e-160), "rectangle sides", "3.141593", "1e-160"),
    (lambda: Disk(np.inf), "disk radius", "2.404826", "inf"),
    (lambda: Disk(1e308), "disk radius", "2.404826", "1e+308"),
], ids=["rectangle_inf", "rectangle_huge", "rectangle_tiny", "disk_inf", "disk_huge"])
def test_extent_out_of_float_range_fails_at_once(call, what, root, length):
    # (pi/L)^2 ((j01/L)^2 for a disk) underflows to 0 or overflows: the masses
    # would be wrong or the spectrum would raise OverflowError
    message = f"{what} must be finite with ({root}/L)^2 finite and positive, got L = {length}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_disk_root_constant_is_the_first_zero_of_j0():
    assert modes.J01 == jn_zeros(0, 1)[0]


# ----------------------------------------------------------------------
# completeness
# ----------------------------------------------------------------------

def test_projection_reproduces_basis_element():
    ms = analytic_spectrum(Rectangle(np.pi, np.pi), count=5)
    resid = check_completeness(ms, ms.samples[2])
    assert resid < 1e-8


def test_completeness_matches_mode_by_mode_projection():
    # reference: subtract the projection on one mode at a time; the matrix
    # products sum in another order, so agreement is to round-off only
    ms = analytic_spectrum(Disk(1.3), count=12)
    x, y = ms.node_x, ms.node_y
    u = (1.69 - x**2 - y**2) * np.exp(-((x - 0.3) ** 2 + y**2))
    res = u.copy()
    for v in ms.samples:
        res -= np.sum(ms.weights * u * v) * v
    want = np.sqrt(np.sum(ms.weights * res * res))
    assert 0.01 * np.sqrt(np.sum(ms.weights * u * u)) < want
    assert check_completeness(ms, u) == pytest.approx(want, rel=1e-12, abs=0)


def test_smooth_bump_expansion_residual():
    ms100 = analytic_spectrum(Rectangle(np.pi, np.pi), count=100)
    x, y = ms100.node_x, ms100.node_y
    bump = np.sin(x) * np.sin(y) * np.exp(-((x - 1.2) ** 2 + (y - 1.9) ** 2))
    norm = np.sqrt(np.sum(ms100.weights * bump * bump))

    ms25 = analytic_spectrum(Rectangle(np.pi, np.pi), count=25)
    r25 = check_completeness(ms25, bump)
    r100 = check_completeness(ms100, bump)
    assert r25 < 0.10 * norm
    # frozen regression baseline for the 25-mode residual (relative)
    assert r25 / norm == pytest.approx(5.587e-03, rel=0.25)
    assert r100 < r25


# ----------------------------------------------------------------------
# raster file format
# ----------------------------------------------------------------------

def test_load_raster_roundtrip(tmp_path):
    path = tmp_path / "shape.txt"
    rows = ["0111", "1111", "1110"]
    path.write_text("spacing 0.025\n" + "\n".join(rows) + "\n")
    r = load_raster(path)
    assert r.spacing == 0.025
    assert r.mask.shape == (3, 4)
    assert bool(r.mask[0, 0]) is False and bool(r.mask[1, 0]) is True


def test_load_raster_validates(tmp_path):
    # every message starts with the file and the offending line
    cases = [
        ("0.025\n11\n11\n", 1, "first line must be 'spacing <value>'"),
        ("\n# mask\n", 2, "first line must be 'spacing <value>'"),
        ("spacing 0.05x\n11\n11\n", 1, "bad spacing '0.05x'"),
        ("spacing inf\n11\n11\n", 1, "lattice spacing must be finite and positive"),
        ("spacing 0.1\n111\n11\n", 3, "ragged row of 2 cells, expected 3"),
        ("spacing 0.1\n\n111\n11\n", 4, "ragged row of 2 cells, expected 3"),
        ("spacing 0.1\n121\n111\n", 2, "rows must contain only 0/1"),
        ("spacing 0.1\n101\n000\n", 2, "one connected region, found 2"),
    ]
    for k, (text, line, fragment) in enumerate(cases):
        path = tmp_path / f"bad{k}.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_raster(path)
        assert str(exc.value).startswith(f"{path}:{line}: ")
        assert fragment in str(exc.value)


def test_fd_on_loaded_raster_matches_direct_mask(tmp_path):
    # a 31x31 square mask at spacing 1/32 approximates the unit square
    n = 31
    rows = ["1" * n] * n
    path = tmp_path / "square.txt"
    path.write_text(f"spacing {1/32}\n" + "\n".join(rows) + "\n")
    r = load_raster(path)
    ms = fd_spectrum(r, count=1)
    # unit square fundamental: 2 pi^2
    assert ms.cutoff_masses[0] ** 2 == pytest.approx(2 * np.pi**2, rel=0.01)
