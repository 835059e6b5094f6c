import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from wgcorr import (
    CorrelatedGaussian,
    DispersionRelation,
    GaussianPacket,
    PumpedPair,
    QuadResult,
    QuadratureError,
    SymmetrizedProduct,
    TablePacket,
    biphoton_scan,
    normalize_biphoton,
    normalized_packet,
    quadrature,
)
from wgcorr.correlators import _joint_envelope, _single_envelope, probability_error
from wgcorr.wavepackets import _feature_width, _quadrature_domain
from wgcorr.quadrature import (
    GAUSS_SUBSET,
    WG,
    WGK,
    XGK,
    osc_integrate_1d_many,
    osc_tensor_scan,
    oscillation_breakpoints,
)

D1 = DispersionRelation(1.0)


def gaussian_env(center, width, amp=1.0):
    def env(k):
        return amp * np.exp(-0.5 * ((k - center) / width) ** 2) + 0.0j
    return env


def riemann_oracle(env, d, z, t, domain, n=10_000_000):
    """Independent fixed-step midpoint Riemann sum."""
    k = np.linspace(domain[0], domain[1], n, endpoint=False)
    h = (domain[1] - domain[0]) / n
    k = k + 0.5 * h
    total = 0.0 + 0.0j
    for i0 in range(0, n, 1_000_000):
        kk = k[i0:i0 + 1_000_000]
        total += np.sum(env(kk) * np.exp(1j * (kk * z - d.omega(kk) * t)))
    return total * h


# ----------------------------------------------------------------------
# the embedded rule itself
# ----------------------------------------------------------------------

def test_rule_constants_match_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(XGK[GAUSS_SUBSET], nodes, atol=1e-13)
    np.testing.assert_allclose(WG, weights, atol=1e-13)
    assert abs(WGK.sum() - 2.0) < 1e-14
    assert abs(WG.sum() - 2.0) < 1e-14


def test_rule_polynomial_exactness():
    # Gauss-7 integrates monomials exactly through degree 13,
    # Kronrod-15 through degree 22, on [-1, 1].
    for deg in range(0, 23):
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        k15 = np.sum(WGK * XGK**deg)
        assert abs(k15 - exact) < 1e-13, f"K15 misses degree {deg}"
        if deg <= 13:
            g7 = np.sum(WG * XGK[GAUSS_SUBSET] ** deg)
            assert abs(g7 - exact) < 1e-13, f"G7 misses degree {deg}"


def test_breakpoints_respect_phase_budget():
    d = DispersionRelation(1.0)
    z, t = 35.0, 120.0
    breaks = oscillation_breakpoints(d, (-2.0, 2.0), [(z, t)])
    widths = np.diff(breaks)
    for a, b, w in zip(breaks[:-1], breaks[1:], widths):
        rate = max(abs(d.phase_rate(a, z, t)), abs(d.phase_rate(b, z, t)))
        assert w * rate <= quadrature._MAX_PHASE_PER_PANEL * (1 + 1e-12)


def reference_breakpoints(d, domain, phase_params, max_width=None):
    """Depth-first scalar panelizer: bisect each panel until it holds."""
    lo, hi = domain
    span = hi - lo
    width0 = span / 8
    if max_width is not None:
        width0 = min(width0, max_width)
    breaks = list(np.linspace(lo, hi, int(np.ceil(span / width0)) + 1))
    stack = [(breaks[i], breaks[i + 1]) for i in range(len(breaks) - 1)][::-1]
    out = []
    while stack:
        a, b = stack.pop()
        rate = max(max(abs(d.phase_rate(a, z, t)), abs(d.phase_rate(b, z, t)))
                   for z, t in phase_params)
        if b - a <= span * 1e-13 or (b - a) * rate <= quadrature._MAX_PHASE_PER_PANEL:
            out.append(a)
        else:
            mid = 0.5 * (a + b)
            stack += [(mid, b), (a, mid)]
    return np.array(out + [hi])


def test_breakpoints_equal_scalar_reference():
    rng = np.random.default_rng(11)
    for case in range(60):
        d = DispersionRelation(rng.uniform(0.2, 2.0))
        centre, width = rng.uniform(-1.0, 2.0), rng.uniform(0.1, 1.0)
        dom = (centre - 7.0 * width, centre + 7.0 * width)
        n_pairs = (1, 2, 4)[case % 3]
        params = [(rng.uniform(-1.2, 1.2) * t, t) for t in rng.uniform(0.0, 1e3, n_pairs)]
        max_width = rng.uniform(0.01, 0.5) if case % 2 else None
        ref = reference_breakpoints(d, dom, params, max_width)
        np.testing.assert_array_equal(
            oscillation_breakpoints(d, dom, params, max_width=max_width), ref)
        # the budget admits exactly the reference panel count
        if case % 10 == 0 and ref.size > 9:
            oscillation_breakpoints(d, dom, params, max_width=max_width,
                                    max_panels=ref.size - 1)
            with pytest.raises(QuadratureError):
                oscillation_breakpoints(d, dom, params, max_width=max_width,
                                        max_panels=ref.size - 2)


def test_initial_panels_count_against_the_budget():
    # a million initial panels are refused before any is built, as a
    # centre of 1e18 would ask for some 1e15 of them
    with pytest.raises(QuadratureError, match="^panel budget 1000 exhausted "):
        oscillation_breakpoints(D1, (0.0, 1.0), [(0.0, 0.0)], max_width=1e-6, max_panels=1000)
    assert oscillation_breakpoints(D1, (0.0, 1.0), [(0.0, 0.0)], max_width=1e-3,
                                   max_panels=1000).size == 1001


def test_breakpoints_keep_domain_breakpoints():
    # every domain breakpoint stays a panel edge; each interval starts as
    # equal panels no wider than an eighth of the whole domain
    dom = (0.0, 0.03, 0.5, 2.0)
    breaks = oscillation_breakpoints(D1, dom, [(0.0, 0.0)])
    assert set(dom) <= set(breaks)
    np.testing.assert_array_equal(
        breaks, np.concatenate([[0.0], [0.03], np.linspace(0.03, 0.5, 3)[1:],
                                np.linspace(0.5, 2.0, 7)[1:]]))
    with pytest.raises(ValueError, match="increasing breakpoints"):
        osc_integrate_1d_many(gaussian_env(0.0, 0.5), D1, [0.0], 1.0, (0.0, 0.5, 0.5, 1.0))


@pytest.mark.parametrize("z, t", [(np.inf, 100.0), (np.nan, 100.0), (5.0, np.nan)])
def test_breakpoints_reject_non_finite_phase(z, t):
    with pytest.raises(ValueError, match="finite"):
        oscillation_breakpoints(D1, (-1.0, 1.0), [(0.0, 10.0), (z, t)])


# ----------------------------------------------------------------------
# 1-D integrals
# ----------------------------------------------------------------------

def test_plain_gaussian_integral():
    # no oscillation at z = t = 0: integral of exp(-k^2/2) = sqrt(2 pi)
    vals, errs, _ = osc_integrate_1d_many(gaussian_env(0.0, 1.0), D1, [0.0], 0.0,
                                          (-9.0, 9.0), rel_tol=1e-12)
    assert vals[0].real == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)
    assert abs(vals[0].imag) < 1e-14
    assert errs[0] <= max(1e-12 * abs(vals[0]), 1e-15)


def test_even_real_envelope_gives_real_transform():
    # t = 0: the Fourier transform of an even real envelope is real
    vals, _, _ = osc_integrate_1d_many(gaussian_env(0.0, 0.7), D1, [5.3], 0.0,
                                       (-8.0, 8.0), rel_tol=1e-12)
    assert abs(vals[0].imag) <= 1e-12 * abs(vals[0])


def test_oscillatory_against_riemann_oracle():
    env = gaussian_env(0.0, 0.5)
    dom = (-0.5 * 7.44, 0.5 * 7.44)
    vals, _, _ = osc_integrate_1d_many(env, D1, [0.0], 50.0, dom, rel_tol=1e-10)
    oracle = riemann_oracle(env, D1, 0.0, 50.0, dom)
    assert abs(vals[0] - oracle) <= 1e-8 * abs(oracle)


def test_random_problem_suite_against_oracle():
    # moderate subset of the acceptance suite for fast feedback
    rng = np.random.default_rng(7)
    for _ in range(8):
        m = rng.uniform(0.5, 2.0)
        d = DispersionRelation(m)
        center = rng.uniform(-1.0, 1.5)
        width = rng.uniform(0.15, 0.8)
        t = rng.uniform(0.0, 100.0)
        v = rng.uniform(-0.9, 0.9)
        z = v * t + rng.uniform(-3, 3)
        dom = (center - 7.44 * width, center + 7.44 * width)
        env = gaussian_env(center, width)
        tol = 10.0 ** rng.uniform(-10, -6)
        vals, _, _ = osc_integrate_1d_many(env, d, [z], t, dom, rel_tol=tol)
        oracle = riemann_oracle(env, d, z, t, dom, n=2_000_000)
        assert abs(vals[0] - oracle) <= max(10 * tol * abs(vals[0]), 1e-12)


def test_halving_tolerance_never_hurts():
    env = gaussian_env(0.4, 0.3)
    dom = (0.4 - 7.44 * 0.3, 0.4 + 7.44 * 0.3)
    oracle = riemann_oracle(env, D1, 11.0, 40.0, dom, n=4_000_000)
    prev = np.inf
    for tol in (1e-4, 1e-6, 1e-8, 1e-10):
        vals, _, _ = osc_integrate_1d_many(env, D1, [11.0], 40.0, dom, rel_tol=tol)
        # errors below the module's absolute floor are round-off and not ordered
        true_err = max(abs(vals[0] - oracle), quadrature.ABS_FLOOR)
        assert true_err <= prev * (1 + 1e-9)
        prev = true_err


def test_phase_shift_covariance():
    # multiplying the envelope by exp(i a k) equals translating z by a
    a = 3.7
    base = gaussian_env(0.2, 0.4)
    shifted = lambda k: base(k) * np.exp(1j * a * k)
    dom = (0.2 - 7.44 * 0.4, 0.2 + 7.44 * 0.4)
    r1, _, _ = osc_integrate_1d_many(shifted, D1, [2.0], 15.0, dom, rel_tol=1e-11)
    r2, _, _ = osc_integrate_1d_many(base, D1, [2.0 + a], 15.0, dom, rel_tol=1e-11)
    assert abs(r1[0] - r2[0]) <= 1e-10 * abs(r2[0])


def test_error_estimate_bounds_true_error():
    # first ten problems of acceptance criterion 10, against the same dense
    # Simpson oracle; below 1e-13 the oracle itself cannot tell
    rng = np.random.default_rng(123)
    for case in range(10):
        d = DispersionRelation(rng.uniform(0.5, 2.0))
        centre = rng.uniform(-1.0, 1.5)
        width = rng.uniform(0.15, 0.8)
        t = rng.uniform(0.0, 100.0)
        v = rng.uniform(-0.9, 0.9)
        z = v * t + rng.uniform(-3.0, 3.0)
        tol = 10.0 ** rng.uniform(-9.0, -6.0)
        dom = (centre - 7.44 * width, centre + 7.44 * width)
        env = gaussian_env(centre, width)
        vals, errs, _ = osc_integrate_1d_many(env, d, [z], t, dom, rel_tol=tol)
        k = np.linspace(dom[0], dom[1], 2_000_001)
        oracle = simpson(env(k) * np.exp(1j * (k * z - d.omega(k) * t)), x=k)
        assert abs(vals[0] - oracle) <= max(errs[0], 1e-13), case


def test_unreachable_tolerance_carries_payload(monkeypatch):
    # needle envelope: the panel budget runs out before the error target
    env = gaussian_env(0.0, 0.002)
    monkeypatch.setattr(quadrature, "MAX_PANELS_1D", 16)
    with pytest.raises(QuadratureError) as excinfo:
        osc_integrate_1d_many(env, D1, [0.0], 0.0, (-1.0, 1.0), rel_tol=1e-13)
    res = excinfo.value.result
    assert res.panels_used >= 8
    assert np.isfinite(res.error_estimate)
    # best value is still in the right ballpark
    exact = 0.002 * np.sqrt(2 * np.pi)
    assert abs(res.value.real - exact) < 0.3 * exact


def stall_1d():
    # criterion 1's packet at t = 1e4 on z in [5000, 7000] with no bisection level
    g = normalized_packet(GaussianPacket(0.75, 0.1))
    z = np.linspace(5000.0, 7000.0, 21)
    return lambda rel_tol: osc_integrate_1d_many(
        _single_envelope(g, D1), D1, z, 1e4, _quadrature_domain(g), rel_tol=rel_tol,
        max_width=_feature_width(g)), [z]


def stall_2d():
    # criterion 3's pair and velocity grid at t = 800 with no bisection level;
    # the shared store gives the loose rerun the continued cross of the stall
    f = criterion_3_pair()
    z = (1.0 / np.sqrt(2.0) + 0.035 * (np.arange(10) - 5)) * 800.0
    store = {}
    return lambda rel_tol: osc_tensor_scan(
        _joint_envelope(f), D1, _quadrature_domain(f, rel_tol=1e-10), 800.0, 800.0, z, z,
        rel_tol=rel_tol, max_width=_feature_width(f), factorizations=store), [z, z]


@pytest.mark.parametrize("scan, levels, rel_tol", [
    (stall_1d, "SCAN1D_MAX_LEVELS", 1e-12),
    (stall_2d, "SCAN2D_MAX_LEVELS", 1e-10),
], ids=["1d", "2d"])
def test_stall_names_worst_point(scan, levels, rel_tol, monkeypatch):
    # a scan out of levels names the detector positions of its worst point on
    # every axis; at a loose tolerance the same panels pass, with the same errors
    monkeypatch.setattr(quadrature, levels, 0)
    run, axes = scan()
    with pytest.raises(QuadratureError) as info:
        run(rel_tol)
    _, errs, panels = run(0.5)
    worst = np.unravel_index(int(np.argmax(errs)), errs.shape)
    at = ", ".join(f"{z[i]:.6g}" for z, i in zip(axes, worst))
    assert f"stalled at z = {at} (error {errs[worst]:.3e}, target " in str(info.value)
    assert str(info.value).endswith(f" with {panels} panels per axis")
    assert info.value.result.error_estimate == errs[worst]
    assert info.value.result.panels_used == panels ** len(axes)


# ----------------------------------------------------------------------
# 2-D integrals
# ----------------------------------------------------------------------

def on_nodes(joint):
    """A broadcasting joint(k1, k2) in the envelope protocol of ``osc_tensor_scan``."""
    return lambda k, wk: lambda idx: joint(k[idx][:, None], k[None, :])


def test_separable_2d_equals_product_of_1d():
    e1 = gaussian_env(0.3, 0.5)
    e2 = gaussian_env(-0.2, 0.4)
    dom = (-4.0, 4.0)
    joint = lambda k1, k2: e1(k1) * e2(k2)
    r2d, _, _ = osc_tensor_scan(on_nodes(joint), D1, dom, 8.0, 5.0, [3.0], [-1.0], rel_tol=1e-10)
    ra, _, _ = osc_integrate_1d_many(e1, D1, [3.0], 8.0, dom, rel_tol=1e-10)
    rb, _, _ = osc_integrate_1d_many(e2, D1, [-1.0], 5.0, dom, rel_tol=1e-10)
    prod = ra[0] * rb[0]
    assert abs(r2d[0, 0] - prod) <= 1e-8 * abs(prod)


def riemann_oracle_2d(joint, dom, n=4000):
    """Midpoint Riemann sum of a joint envelope over dom x dom."""
    k = np.linspace(dom[0], dom[1], n, endpoint=False)
    h = (dom[1] - dom[0]) / n
    k = k + 0.5 * h
    total = 0.0
    for i0 in range(0, n, 250):
        total += joint(k[i0:i0 + 250][:, None], k[None, :]).sum()
    return total * h * h


def test_2d_plain_envelope_against_riemann():
    joint = lambda k1, k2: np.exp(-0.5 * (k1**2 + k2**2) - 0.3 * k1 * k2) + 0.0j
    dom = (-6.0, 6.0)
    vals, _, _ = osc_tensor_scan(on_nodes(joint), D1, dom, 0.0, 0.0, [0.0], [0.0], rel_tol=1e-10)
    oracle = riemann_oracle_2d(lambda k1, k2: joint(k1, k2).real, dom)
    assert abs(vals[0, 0].real - oracle) <= 1e-7 * abs(oracle)
    assert abs(vals[0, 0].imag) < 1e-12


def test_2d_swap_symmetry():
    joint = lambda k1, k2: np.exp(-0.5 * (k1 - k2) ** 2 - 0.1 * (k1 + k2) ** 2) + 0.0j
    dom = (-5.0, 5.0)
    r1, _, _ = osc_tensor_scan(on_nodes(joint), D1, dom, 6.0, 9.0, [2.0], [-1.5], rel_tol=1e-10)
    r2, _, _ = osc_tensor_scan(on_nodes(joint), D1, dom, 9.0, 6.0, [-1.5], [2.0], rel_tol=1e-10)
    assert abs(r1[0, 0] - r2[0, 0]) <= 1e-12 * abs(r1[0, 0])


# ----------------------------------------------------------------------
# batched drivers
# ----------------------------------------------------------------------

def test_batched_1d_validates_tolerance():
    with pytest.raises(ValueError, match="rel_tol"):
        osc_integrate_1d_many(gaussian_env(0.0, 0.5), D1, [0.0, 1.0], 10.0,
                              (-3.0, 3.0), rel_tol=0.0)


def test_tensor_scan_refuses_axis_over_budget_before_sampling(monkeypatch):
    calls = []

    def joint(k1, k2):
        calls.append(1)
        return np.exp(-0.5 * (k1**2 + k2**2)) + 0.0j

    monkeypatch.setattr(quadrature, "MAX_PANELS_AXIS", 20)
    with pytest.raises(QuadratureError, match="panel budget 20"):
        osc_tensor_scan(on_nodes(joint), D1, (-4.0, 4.0), 200.0, 200.0, [0.0, 50.0], [0.0])
    assert not calls


# ----------------------------------------------------------------------
# low-rank contraction
# ----------------------------------------------------------------------

PAIR_FAMILIES = {
    "separable": SymmetrizedProduct(GaussianPacket(0.6, 0.3), GaussianPacket(1.0, 0.25)),
    "correlated": CorrelatedGaussian(2.0, 0.15, 0.5),
    "pumped": PumpedPair(GaussianPacket(2.0, 0.1), pump_scale=2.0),
}
# every family reaches these on the low-rank path at t = 30; the pumped pair
# needs its graded sqrt(k) edge for that (ungraded, it stalls at 1e-8), and its
# cross, continued once, meets the 1e-10 truncation target (ranks 58, then 60)
PAIR_TOLS = {"separable": 1e-10, "correlated": 1e-9, "pumped": 1e-10}


def criterion_3_pair():
    return normalize_biphoton(PumpedPair(GaussianPacket(2.0, 0.1), pump_scale=2.0), (0.0, 2.744))


def spy_dense(monkeypatch):
    """Record the node count of every level that uses the dense factorization."""
    sizes = []
    dense = quadrature._dense

    def recording(rows, grid, left, right):
        sizes.append(grid[0].size)
        return dense(rows, grid, left, right)

    monkeypatch.setattr(quadrature, "_dense", recording)
    return sizes


@pytest.mark.parametrize("family", sorted(PAIR_FAMILIES))
def test_low_rank_scan_matches_dense_within_error(family, monkeypatch):
    f = PAIR_FAMILIES[family]
    lo, hi = f.support
    vmid = D1.omega_d(0.5 * (lo + hi))
    t1, t2 = 30.0, 24.0
    z1 = t1 * (vmid + np.linspace(-0.2, 0.2, 5))
    z2 = t2 * (vmid + np.linspace(-0.15, 0.2, 4))
    dense_levels = spy_dense(monkeypatch)
    amps, errs, panels = biphoton_scan(f, D1, t1, t2, z1, z2, rel_tol=PAIR_TOLS[family])
    assert not dense_levels
    monkeypatch.setattr(quadrature, "_symmetric_cross", lambda rows, checks: None)
    ref, _, ref_panels = biphoton_scan(f, D1, t1, t2, z1, z2, rel_tol=PAIR_TOLS[family])
    assert ref_panels == panels and dense_levels
    assert (np.abs(amps - ref) <= errs).all()


@pytest.mark.parametrize("family", sorted(PAIR_FAMILIES))
@pytest.mark.parametrize("t", [0.0, 100.0])
def test_low_rank_l1_bounds_dense_l1(family, t):
    # the round-off scale from the factors, (w15^T |U|) |M| (|U|^T w15),
    # bounds w15^T |F| w15 from above without overstating it much
    f = PAIR_FAMILIES[family]
    lo, hi = f.support
    z = t * (D1.omega_d(0.5 * (lo + hi)) + np.linspace(-0.2, 0.2, 3))
    store = {}
    biphoton_scan(f, D1, t, t, z, z, rel_tol=PAIR_TOLS[family], factorizations=store)
    assert store and all(fac is not None for fac in store.values())
    for key, fac in store.items():
        k, w15, w7 = quadrature._panel_grid(np.frombuffer(key))
        grid = (k, w15, w7, D1.omega(k))
        axis = (np.zeros(1), 0.0)
        _, l1, _ = quadrature._low_rank(fac, grid, axis, axis)
        _, dense_l1, _ = quadrature._dense(_joint_envelope(f)(k, grid[3]), grid, axis, axis)
        assert dense_l1 <= l1 <= 4.0 * dense_l1


def test_scans_share_one_factorization_per_panelization(monkeypatch):
    calls = []
    cross = quadrature._symmetric_cross

    def counting(rows, checks):
        calls.append(checks.size)
        return cross(rows, checks)

    monkeypatch.setattr(quadrature, "_symmetric_cross", counting)
    f = PAIR_FAMILIES["correlated"]
    lo, hi = f.support
    v = D1.omega_d(0.5 * (lo + hi)) + np.linspace(-0.2, 0.2, 5)
    big, small = 50.0, 20.0
    store = {}
    biphoton_scan(f, D1, big, big, v * big, v * big, rel_tol=1e-9, factorizations=store)
    # one cross, or one and the tighter retry that replaces it in the store
    factored = len(calls)
    assert factored in (1, 2) and len(store) == 1
    # the larger time sets the panels of both axes, so the envelope matrix is the same
    amps, errs, _ = biphoton_scan(f, D1, small, big, v * small, v * big, rel_tol=1e-9,
                                  factorizations=store)
    assert len(calls) == factored and len(store) == 1
    fresh, fresh_errs, _ = biphoton_scan(f, D1, small, big, v * small, v * big, rel_tol=1e-9)
    assert factored < len(calls) <= factored + 2
    assert np.array_equal(amps, fresh) and np.array_equal(errs, fresh_errs)
    factored = len(calls)
    biphoton_scan(f, D1, 2 * big, 2 * big, v * 2 * big, v * 2 * big, rel_tol=1e-9,
                  factorizations=store)
    assert factored < len(calls) <= factored + 2 and len(store) == 2


def test_high_rank_envelope_takes_dense_fallback(monkeypatch):
    # exp(40 i k1 k2) needs more than a tenth of the nodes as cross rank
    joint = lambda k1, k2: np.exp(-2.0 * (k1**2 + k2**2) + 40j * k1 * k2)
    dom = (-4.0, 4.0)
    dense_levels = spy_dense(monkeypatch)
    vals, _, panels = osc_tensor_scan(on_nodes(joint), D1, dom, 0.0, 0.0, [0.0], [0.0],
                                      rel_tol=1e-10)
    assert dense_levels and dense_levels[-1] == 15 * panels
    oracle = riemann_oracle_2d(joint, dom)
    assert abs(vals[0, 0] - oracle) <= 1e-7 * abs(oracle)


def test_cross_memory_follows_rank():
    # a smooth symmetric envelope on 127,290 nodes (four times those of a
    # t = 1e4 pair scan of criterion 3's grid), where a U sized for a tenth
    # of the nodes would ask for 24 GiB; tracemalloc sees numpy's allocations
    k, _, _ = quadrature._panel_grid(np.linspace(-4.0, 4.0, 8487))
    checks = np.linspace(0, k.size - 1, 55).astype(int)

    def rows(idx):
        k1 = k[idx][:, None]
        return np.exp(-0.5 * (k1**2 + k**2) - 0.25 * (k1 - k) ** 2) + 0.0j

    tracemalloc.start()
    try:
        u, m, rho = quadrature._symmetric_cross(rows, checks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, r = u.shape
    assert n == 127_290 and rho <= quadrature.CROSS_TOL
    assert peak <= 4 * (r + checks.size) * n * 16


def test_cross_grows_past_its_first_rows():
    # rank ~145: U outgrows its first 128 rows once and stays accurate
    k, _, _ = quadrature._panel_grid(np.linspace(-4.0, 4.0, 201))

    def rows(idx):
        return np.exp(-2.0 * (k[idx][:, None] ** 2 + k**2) + 20j * k[idx][:, None] * k)

    u, m, rho = quadrature._symmetric_cross(rows, np.linspace(0, k.size - 1, 64).astype(int))
    assert 128 < u.shape[1] <= k.size // 10
    sample = np.random.default_rng(7).choice(k.size, 200, replace=False)
    assert np.abs(rows(sample) - u[sample] @ m @ u.T).max() <= 10 * quadrature.CROSS_TOL


def assert_reproduces(rows, fac, n):
    # 200 sampled rows of F against U M U^T, relative to their largest entry
    u, m, _ = fac
    sample = np.random.default_rng(7).choice(n, 200, replace=False)
    f = rows(sample)
    assert np.abs(f - u[sample] @ m @ u.T).max() <= 10 * quadrature.CROSS_TOL * np.abs(f).max()


def random_pair(family, draw):
    """A pair of ``family`` with random parameters; ``draw(lo, hi)`` gives one number."""
    def gaussian():
        return GaussianPacket(draw(0.3, 1.5), draw(0.1, 0.5),
                              amplitude=draw(0.2, 2.0) * np.exp(1j * draw(0.0, 2 * np.pi)))

    if family == "separable":
        return SymmetrizedProduct(gaussian(), gaussian())
    if family == "correlated":
        return CorrelatedGaussian(draw(1.0, 3.0), draw(0.1, 0.6), draw(0.1, 0.6))
    if family == "pumped":
        return PumpedPair(replace(gaussian(), center=draw(1.5, 2.5)),
                          pump_scale=draw(0.5, 3.0))
    grid = np.linspace(draw(0.2, 0.6), draw(1.0, 1.6), 21)
    return SymmetrizedProduct(
        *(TablePacket(grid, np.exp(-((grid - 0.9) / 0.3) ** 2 + 1j * draw(0.5, 5.0) * grid))
          for _ in range(2)))


@pytest.mark.parametrize("family, dtype", [
    # every built-in pair family is a declared phase times a real kernel;
    # a product of complex table packets keeps a complex kernel
    *[(family, np.float64) for family in sorted(PAIR_FAMILIES)],
    ("complex", np.complex128),
])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), r=st.floats(0.1, 10.0),
       phase=st.one_of(st.sampled_from([1.0, 1j, -1.0, -1j]),
                       st.floats(0.0, 2.0 * np.pi).map(lambda phi: np.exp(1j * phi))))
def test_cross_arithmetic_follows_envelope_phase(family, dtype, data, r, phase):
    # the rows the 2-D rule factors are the kernel without the phase, in the
    # kernel's own dtype; the phase times them is the envelope
    # f(k1, k2) / (8 pi sqrt(omega1 omega2)) to a few ulps
    f = random_pair(family, lambda lo, hi: data.draw(st.floats(lo, hi)))
    f = replace(f, scale=r * phase)
    lo, hi = f.support
    k = np.sort(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(lo, hi, 64))
    wk = D1.omega(k)
    got = _joint_envelope(f)(k, wk)(np.arange(k.size))
    assert got.dtype == dtype
    ref = f(k[:, None], k[None, :]) / (8.0 * np.pi * np.sqrt(wk[:, None] * wk[None, :]))
    # entrywise for a real kernel, down to where subnormals lose precision;
    # complex products can cancel, so a table kernel is held to the largest entry
    size = np.abs(ref) if dtype == np.float64 else np.abs(ref).max()
    assert (np.abs(f.phase * got - ref) <= 16 * np.finfo(float).eps * size + 1e-300).all()
    # a t = 0 scan factors the same rows in that dtype, and the truncation
    # bound it adds to its errors covers the weighted residual of its cross
    store = {}
    biphoton_scan(f, D1, 0.0, 0.0, [0.0], [0.0], rel_tol=1e-8, factorizations=store)
    for key, (u, m, rho) in store.items():
        k, w15, _ = quadrature._panel_grid(np.frombuffer(key))
        assert u.dtype == dtype and m.dtype == dtype
        resid = _joint_envelope(f)(k, D1.omega(k))(np.arange(k.size)) - u @ m @ u.T
        assert w15 @ np.abs(resid) @ w15 <= rho * w15.sum() ** 2


@pytest.mark.parametrize("scale", [3 * np.exp(0.3j), np.exp(1j * np.pi / 2)])
@pytest.mark.parametrize("family", sorted(PAIR_FAMILIES))
def test_generic_phase_scale_factors_in_float64(family, scale, monkeypatch):
    # any constant phase of the scale stays out of the rows, which the cross
    # factors in float64; the values agree with a cross of the same rows in
    # complex arithmetic
    f = replace(PAIR_FAMILIES[family], scale=scale)
    lo, hi = f.support
    t1, t2 = 30.0, 24.0
    z1 = t1 * (D1.omega_d(0.5 * (lo + hi)) + np.linspace(-0.2, 0.2, 5))
    z2 = t2 * (D1.omega_d(0.5 * (lo + hi)) + np.linspace(-0.15, 0.2, 4))
    store = {}
    amps, errs, _ = biphoton_scan(f, D1, t1, t2, z1, z2, rel_tol=PAIR_TOLS[family],
                                  factorizations=store)
    assert store and all(fac is not None and fac[0].dtype == np.float64
                         for fac in store.values())
    cross = quadrature._symmetric_cross
    monkeypatch.setattr(quadrature, "_symmetric_cross",
                        lambda rows, checks: cross(lambda idx: rows(idx).astype(complex), checks))
    ref, ref_errs, _ = biphoton_scan(f, D1, t1, t2, z1, z2, rel_tol=PAIR_TOLS[family])
    assert (np.abs(amps - ref) <= errs + ref_errs).all()


def test_envelope_complex_off_the_check_rows_ends_complex():
    # F = G + i eps h h^T with h zero on the check nodes: every check row is
    # real, the pivot rows off them are not; complex rows get complex
    # arithmetic from the start, so the cross still finds a low-rank form
    k, _, _ = quadrature._panel_grid(np.linspace(-4.0, 4.0, 201))
    checks = np.linspace(0, k.size - 1, 32).astype(int)
    h = np.exp(-((k - 0.5) ** 2))
    h[checks] = 0.0

    def rows(idx):
        k1 = k[idx][:, None]
        return np.exp(-0.5 * (k1**2 + k**2) - 0.25 * (k1 - k) ** 2) + 1e-3j * h[idx][:, None] * h

    assert not rows(checks).imag.any() and rows(np.arange(k.size)).imag.any()
    fac = quadrature._symmetric_cross(rows, checks)
    assert fac is not None and fac[0].dtype == np.complex128
    assert_reproduces(rows, fac, k.size)


def test_pair_scan_memory_at_large_time(monkeypatch):
    # criterion 3's pumped pair on its refined 19 x 19 velocity grid at
    # t1 = t2 = 1e4, N = 31,905 nodes per axis: the scan holds the real
    # U, the real check rows and one block of phase weights, never an
    # N x len(z) matrix; tracemalloc sees numpy's allocations
    checks = []
    cross = quadrature._symmetric_cross

    def counting(rows, idx):
        checks.append(idx.size)
        return cross(rows, idx)

    f = criterion_3_pair()
    monkeypatch.setattr(quadrature, "_symmetric_cross", counting)
    v = quadrature._midpoint_split(1.0 / np.sqrt(2.0) + 0.035 * (np.arange(10) - 5),
                                   np.ones(9, dtype=bool))
    t = 1e4
    store = {}
    tracemalloc.start()
    try:
        amps, errs, _ = biphoton_scan(f, D1, t, t, v * t, v * t, rel_tol=1e-6,
                                      factorizations=store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (u, m, rho), = store.values()
    n, r = u.shape
    assert n == 31_905 and u.dtype == np.float64 and len(checks) == 1
    assert peak <= 3 * ((r + checks[0]) * n * 8 + quadrature.BLOCK_VALUES * 16)
    # sup P t^2 = 4.2159403 within its propagated error (and the rounding
    # of that reference to 7 decimals)
    p = np.abs(amps) ** 2
    top = np.unravel_index(int(np.argmax(p)), p.shape)
    p_err = probability_error(np.abs(amps[top]), errs[top])
    assert abs(p[top] * t * t - 4.2159403) <= p_err * t * t + 5e-8


def test_single_scan_memory_at_large_time():
    # criterion 1's packet on 241 detector positions at t = 1e4, N = 21,900
    # nodes: a level holds a few node arrays and one block of phase factors,
    # never a len(z) x N phase matrix; tracemalloc sees numpy's allocations
    g = normalized_packet(GaussianPacket(0.75, 0.1))
    z = np.linspace(6000.0 - 60.0, 6000.0 + 60.0, 241)
    tracemalloc.start()
    try:
        _, _, panels = osc_integrate_1d_many(_single_envelope(g, D1), D1, z, 1e4,
                                             _quadrature_domain(g), rel_tol=1e-9,
                                             max_width=_feature_width(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = 15 * panels
    assert n == 21_900
    # k, w15, w7, omega(k), the complex envelope and its temporaries: 8 node arrays
    assert peak <= 2 * (n * 8 * 8 + quadrature.BLOCK_VALUES * 16)


@pytest.mark.parametrize("joint, rel_tol, reached", [
    # exp(100 i k1 k2) passes the rank cap
    (lambda k1, k2: np.exp(-2.0 * (k1**2 + k2**2) + 100j * k1 * k2), 1e-9,
     rf"no symmetric cross of rank <= {quadrature.MAX_CROSS_RANK}"),
    # a smooth low-rank kernel whose truncation bound alone misses a 1e-14 target
    (lambda k1, k2: np.exp(-0.5 * (k1**2 + k2**2) - (k1 - k2) ** 2) + 0j, 1e-14,
     r"cross rank \d+ leaves truncation"),
], ids=["rank_cap", "truncation"])
def test_envelope_beyond_dense_budget_raises(joint, rel_tol, reached):
    # 1,100 panels of 15 nodes: N^2 > DENSE_MAX_VALUES forbids the dense path
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match=rf"N = (\d+) nodes per axis: {reached}") as info:
        osc_tensor_scan(on_nodes(joint), D1, (-4.0, 4.0), 0.0, 0.0, [0.0], [0.0], rel_tol=rel_tol,
                        max_width=8.0 / 1100)
    n = int(re.search(r"N = (\d+)", str(info.value)).group(1))
    assert n ** 2 > quadrature.DENSE_MAX_VALUES and info.value.result.error_estimate == np.inf
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("family", sorted(PAIR_FAMILIES))
def test_exchanged_scan_is_transpose(family, monkeypatch):
    dense_levels = spy_dense(monkeypatch)
    f = PAIR_FAMILIES[family]
    lo, hi = f.support
    vmid = D1.omega_d(0.5 * (lo + hi))
    t1, t2 = 40.0, 15.0
    z1 = t1 * (vmid + np.linspace(-0.2, 0.2, 6))
    z2 = t2 * (vmid + np.linspace(-0.1, 0.25, 3))
    a12, e12, _ = biphoton_scan(f, D1, t1, t2, z1, z2, rel_tol=1e-7)
    a21, e21, _ = biphoton_scan(f, D1, t2, t1, z2, z1, rel_tol=1e-7)
    assert not dense_levels
    assert np.abs(a12 - a21.T).max() <= 1e-14 * np.abs(a12).max()
    assert np.abs(e12 - e21.T).max() <= 1e-14 * np.abs(a12).max()


@pytest.mark.parametrize("family", [*sorted(PAIR_FAMILIES), "complex"])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), t1=st.floats(-30.0, 30.0), t2=st.floats(-30.0, 30.0))
def test_exchanged_scan_is_transpose_on_random_pairs(family, data, t1, t2):
    # detectors on random rays z_i = t_i omega'(k_i) of the support, plus the
    # rays of the peak of |f|: the exchange reassociates the contraction, so the
    # two scans agree to the round-off of the sums, which that peak sets
    f = random_pair(family, lambda lo, hi: data.draw(st.floats(lo, hi)))
    lo, hi = f.support
    k = np.linspace(lo, hi, 65)
    peak = np.unravel_index(np.abs(f(k[:, None], k[None, :])).argmax(), (65, 65))
    k1, k2 = (np.array([k[i], *data.draw(st.lists(st.floats(lo, hi), max_size=3))])
              for i in peak)
    z1, z2 = t1 * D1.omega_d(k1), t2 * D1.omega_d(k2)
    a12, e12, _ = biphoton_scan(f, D1, t1, t2, z1, z2, rel_tol=1e-7)
    a21, e21, _ = biphoton_scan(f, D1, t2, t1, z2, z1, rel_tol=1e-7)
    assert np.abs(a12 - a21.T).max() <= 1e-14 * np.abs(a12).max()
    assert np.abs(e12 - e21.T).max() <= 1e-14 * np.abs(a12).max()


def spy_cross_rows(monkeypatch):
    """Record the row indices every cross evaluates, and how many calls of
    the rows callable each ``_symmetric_cross`` made before it returned."""
    evaluated, first = [], []
    cross = quadrature._symmetric_cross

    def counting(rows, checks):
        def counted(idx):
            evaluated.append(np.atleast_1d(idx).copy())
            return rows(idx)
        fac = cross(counted, checks)
        first.append(len(evaluated))
        return fac

    monkeypatch.setattr(quadrature, "_symmetric_cross", counting)
    return evaluated, first


def test_pumped_pair_normalizes_without_dense_level(monkeypatch):
    # |f|^2 on criterion 3's domain (N = 825): the cross at CROSS_TOL misses
    # the 1e-10 truncation target, and its one retry continues that cross to
    # meet it, evaluating only rows the first cross did not
    evaluated, first = spy_cross_rows(monkeypatch)
    dense_levels = spy_dense(monkeypatch)
    f = criterion_3_pair()
    assert not dense_levels and len(first) == 1
    before, retry = np.concatenate(evaluated[:first[0]]), evaluated[first[0]:]
    assert retry and not np.intersect1d(before, np.concatenate(retry)).size
    # 2.36640456323671 is the value of the dense path
    assert abs(f.scale - 2.36640456323671) <= 1e-10 * 2.37


def test_cross_evaluates_each_row_once(monkeypatch):
    # a row read for the Bunch-Kaufman 2x2 test and not pivoted is kept, so
    # it is not evaluated again when it becomes the candidate: the first cross
    # of criterion 3's |f|^2 reads 125 distinct rows (129 evaluations when
    # such rows were read twice), and no cross evaluates any row twice
    evaluated, first = spy_cross_rows(monkeypatch)
    criterion_3_pair()
    before, every = np.concatenate(evaluated[:first[0]]), np.concatenate(evaluated)
    assert before.size == np.unique(before).size == 125
    assert every.size == np.unique(every).size


@pytest.mark.parametrize("t, levels", [(50.0, 0), (800.0, 1)])
def test_pumped_pair_reaches_tight_tolerance(t, levels, monkeypatch):
    # criterion 3's pair and velocity grid at rel_tol 1e-10: the graded sqrt(k)
    # edge needs no bisection level.  At t = 800 the G7 estimate on panels of
    # nearly 2 pi of phase reads 4.5e-12 at the slowest detectors, against a
    # true error of 1e-17 and a target of 1.2e-13, which costs one level.  No
    # level takes the dense path: the unclipped pump keeps the rank low, and
    # on N = 6,480 the continued cross (rank 58, then 65) meets the target
    f = criterion_3_pair()
    dense_levels = spy_dense(monkeypatch)
    v = 1.0 / np.sqrt(2.0) + 0.035 * (np.arange(10) - 5)
    amps, errs, panels = biphoton_scan(f, D1, t, t, v * t, v * t, rel_tol=1e-10)
    initial = oscillation_breakpoints(D1, _quadrature_domain(f, rel_tol=1e-10),
                                      [(v[0] * t, t), (v[-1] * t, t)],
                                      max_width=_feature_width(f))
    assert panels == (initial.size - 1) * 2**levels and not dense_levels
    assert errs.max() <= 1e-10 * np.abs(amps).max()


@pytest.mark.parametrize("t1, t2", [(5.0, 5.0), (30.0, 24.0)])
def test_pumped_scan_errors_bound_finer_reference(t1, t2):
    # at the sqrt(k) edge the errors reported at rel_tol 1e-8 bound the actual
    # difference from a scan on panels a quarter as wide at rel_tol 1e-10
    # (by a factor of about 850 or more)
    f = PAIR_FAMILIES["pumped"]
    lo, hi = f.support
    vmid = D1.omega_d(0.5 * (lo + hi))
    z1 = t1 * (vmid + np.linspace(-0.2, 0.2, 5))
    z2 = t2 * (vmid + np.linspace(-0.15, 0.2, 4))

    def scan(rel_tol, max_width):
        return osc_tensor_scan(_joint_envelope(f), D1, _quadrature_domain(f, rel_tol=rel_tol),
                               t1, t2, z1, z2, rel_tol=rel_tol, max_width=max_width)

    amps, errs, panels = scan(1e-8, _feature_width(f))
    ref, _, ref_panels = scan(1e-10, 0.25 * _feature_width(f))
    assert ref_panels > 3 * panels
    assert (np.abs(amps - ref) <= errs).all()


@pytest.mark.parametrize("rule", ["1d", "2d"])
def test_non_finite_envelope_fails_at_first_level(rule):
    # a NaN in the envelope raises at once instead of bisecting every level
    levels = []

    def envelope(k):
        levels.append(k.size)
        return np.where(k > 1.0, np.nan, 1.0)

    def joint(k, wk):
        levels.append(k.size)
        return lambda idx: np.where(k[idx][:, None] + k[None, :] > 2.0, np.nan, 1.0)

    with pytest.raises(ValueError, match="not finite"):
        if rule == "1d":
            osc_integrate_1d_many(envelope, D1, [0.0, 5.0], 10.0, (0.5, 1.5))
        else:
            osc_tensor_scan(joint, D1, (0.5, 1.5), 10.0, 10.0, [0.0], [0.0, 5.0])
    assert len(levels) == 1


@pytest.mark.parametrize("ridge", ["anti_diagonal", "diagonal"])
def test_cross_gives_up_on_a_row_past_the_checks_that_is_not_finite(ridge):
    # the check rows are finite, every row asked for after them is NaN: on
    # the ridge k1 + k2 = 0.93 the candidate's diagonal is small, so the
    # cross asks for its partner row j to choose a 2x2 pivot; on k1 = k2 it
    # takes a 1x1 pivot and asks for the next candidate row.  Either way it
    # gives up, and the dense level that follows raises at once
    calls = []

    def joint(k, wk):
        def rows(idx):
            calls.append(idx)
            k1 = k[idx][:, None]
            u = k1 + k - 0.93 if ridge == "anti_diagonal" else k1 - k
            return np.exp(-u * u / 0.02) if len(calls) < 3 else np.full(u.shape, np.nan)
        return rows

    factorizations = {}
    with pytest.raises(ValueError, match=r"^the integrand is not finite on 8 panels$"):
        osc_tensor_scan(joint, D1, (0.0, 1.0), 0.0, 0.0, [0.0], [0.0],
                        factorizations=factorizations)
    assert list(factorizations.values()) == [None]
    assert len(calls) == 4 and np.size(calls[2]) == 1   # one row past the checks, then dense


@pytest.mark.parametrize("error, panels", [(-1e-3, 1), (1e-3, 0)],
                         ids=["negative_error", "no_panels"])
def test_quad_result_rejects_invalid_fields(error, panels):
    with pytest.raises(ValueError, match=r"^invalid quadrature result fields$"):
        QuadResult(1.0 + 0j, error, panels)
