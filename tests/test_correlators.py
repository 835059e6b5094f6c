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
    SpacetimePoint,
    SymmetrizedProduct,
    TablePacket,
    amplitude_biphoton,
    amplitude_single,
    asymptotic_biphoton,
    asymptotic_single,
    biphoton_scan,
    entangled_spacetime_profile,
    kg_residual,
    momentum_norm,
    normalize_biphoton,
    normalized_packet,
    position_norm,
    probability_biphoton,
    probability_single,
    single_scan,
)
from wgcorr import correlators
from wgcorr.correlators import probability_error

D1 = DispersionRelation(1.0)
PUMP = GaussianPacket(center=2.0, width=0.1)


# ----------------------------------------------------------------------
# single photon
# ----------------------------------------------------------------------

def test_zero_packet_gives_zero():
    g = GaussianPacket(0.5, 0.2, amplitude=0.0)
    r = amplitude_single(g, D1, SpacetimePoint(3.0, 7.0))
    assert r.value == 0.0
    p, _ = probability_single(g, D1, SpacetimePoint(3.0, 7.0))
    assert p == 0.0


def test_origin_amplitude_real_positive_for_even_real_packet():
    g = GaussianPacket(0.0, 0.4)
    r = amplitude_single(g, D1, SpacetimePoint(0.0, 0.0))
    assert r.value.real > 0
    assert abs(r.value.imag) < 1e-13 * r.value.real


def test_amplitude_against_riemann_oracle():
    g = GaussianPacket(0.75, 0.1)
    r = amplitude_single(g, D1, SpacetimePoint(0.0, 0.0), rel_tol=1e-11)
    lo, hi = g.support
    k = np.linspace(lo, hi, 2_000_000, endpoint=False)
    k += (hi - lo) / 2_000_000 / 2
    vals = g(k) / (2 * np.sqrt(2 * np.pi * D1.omega(k)))
    oracle = np.sum(vals) * (hi - lo) / 2_000_000
    assert abs(r.value - oracle) <= 1e-8 * abs(oracle)


def test_probability_parity_for_centered_packet():
    g = GaussianPacket(0.0, 0.3)
    for z in (0.5, 2.0, 7.5):
        p1, _ = probability_single(g, D1, SpacetimePoint(z, 12.0), rel_tol=1e-11)
        p2, _ = probability_single(g, D1, SpacetimePoint(-z, 12.0), rel_tol=1e-11)
        assert p1 == pytest.approx(p2, rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(width=st.floats(0.05, 0.5), phase=st.floats(0.0, 2.0 * np.pi),
       z=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6), t=st.floats(-40.0, 40.0))
def test_probability_parity_on_random_centred_packets(width, phase, z, t):
    # g(-k) = g(k) for a packet centred at k = 0, so P(-z, t) = P(z, t)
    # within the error estimates of the two scans
    g = GaussianPacket(0.0, width, amplitude=np.exp(1j * phase))
    plus = single_scan(g, D1, z, t)
    minus = single_scan(g, D1, -np.asarray(z), t)
    assert (np.abs(plus.values - minus.values)
            <= plus.error_estimates + minus.error_estimates).all()


@settings(max_examples=20, deadline=None)
@given(center=st.floats(-2.0, 2.0), width=st.floats(0.05, 0.5),
       z=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=6),
       t=st.floats(-40.0, 40.0))
def test_real_packet_amplitude_conjugates_under_spacetime_reflection(center, width, z, t):
    # for real g, A(-z, -t) = conj A(z, t); the panelization is the same
    # under (z, t) -> (-z, -t), so the two sides agree to rounding
    g = GaussianPacket(center, width)
    a = single_scan(g, D1, z, t).amplitudes
    b = single_scan(g, D1, -np.asarray(z), -t).amplitudes
    assert np.abs(b - np.conj(a)).max() <= 1e-14 * np.abs(a).max()


def test_asymptotic_single_known_values():
    g_unit = GaussianPacket(0.0, 0.5)        # |g(0)|^2 = 1 at its peak
    r = asymptotic_single(g_unit, D1, v=0.0, t=20.0)
    assert r.probability == pytest.approx(0.25 / 20.0, rel=1e-12)
    assert r.stationary_momenta == (0.0,)

    g = GaussianPacket(0.75, 0.1)            # |g(0.75)|^2 = 1
    r = asymptotic_single(g, D1, v=0.6, t=100.0)
    # 1 / (4 * 100 * 1.25 * 0.512)
    assert r.probability == pytest.approx(3.90625e-3, rel=1e-12)
    assert r.stationary_momenta[0] == pytest.approx(0.75, abs=1e-15)
    assert abs(r.amplitude) ** 2 == pytest.approx(r.probability, rel=1e-12)
    # the amplitude carries the quarter-turn phase lag of the quadratic
    # stationary point on top of the travelling phase
    w0 = D1.omega(r.stationary_momenta[0])
    expected_phase = np.exp(-1j * (100.0 * (w0 - r.stationary_momenta[0] * 0.6) + np.pi / 4))
    assert r.amplitude / abs(r.amplitude) == pytest.approx(expected_phase, rel=1e-12)


def test_asymptotic_single_node_packet():
    # antisymmetric table packet crosses zero at the stationary point
    # (k0 = 0.6/0.8 lands on the node up to round-off)
    from wgcorr import TablePacket
    k = np.linspace(0.5, 1.0, 11)
    t = TablePacket(k, (k - 0.75).astype(complex))
    r = asymptotic_single(t, D1, v=0.6, t=50.0)
    assert r.probability < 1e-30


def test_asymptotic_single_rejects_bad_frame():
    g = GaussianPacket(0.0, 0.5)
    with pytest.raises(ValueError):
        asymptotic_single(g, D1, v=1.0, t=10.0)
    with pytest.raises(ValueError):
        asymptotic_single(g, D1, v=0.5, t=0.0)


def test_asymptotic_matches_quadrature_for_wide_packet():
    # guard satisfied: t * omega'' * sigma^2 = 100 * 0.512 * 0.25 = 12.8
    g = normalized_packet(GaussianPacket(0.75, 0.5))
    v = 0.6
    for t in (100.0, 300.0):
        asym = asymptotic_single(g, D1, v, t)
        assert asym.guard_ok
        p, _ = probability_single(g, D1, SpacetimePoint(v * t, t), rel_tol=1e-10)
        assert p == pytest.approx(asym.probability, rel=0.05)


def test_asymptotic_guard_flags_narrow_packet():
    g = GaussianPacket(0.75, 0.1)
    r = asymptotic_single(g, D1, v=0.6, t=200.0)
    assert not r.guard_ok
    assert r.guard_values == pytest.approx((200 * 0.512 * 0.01,), rel=1e-12)


def test_asymptotic_single_broadcasts_like_scalar_calls():
    g = GaussianPacket(0.75, 0.3)
    v = np.linspace(0.1, 0.8, 5)[:, None]
    t = np.array([[30.0, 200.0, 1500.0]])
    r = asymptotic_single(g, D1, v, t)
    for i, j in np.ndindex(5, 3):
        s = asymptotic_single(g, D1, float(v[i, 0]), float(t[0, j]))
        for got, want in ((r.probability, s.probability), (r.amplitude, s.amplitude),
                          (r.stationary_momenta[0], s.stationary_momenta[0]),
                          (r.guard_values[0], s.guard_values[0])):
            assert np.broadcast_to(got, (5, 3))[i, j] == pytest.approx(want, rel=1e-13)
        assert r.guard_ok[i, j] == s.guard_ok


@pytest.mark.parametrize("evaluate", [
    lambda g: amplitude_single(g, D1, SpacetimePoint(np.inf, 10.0)),
    lambda g: single_scan(g, D1, [1.0, np.nan], 10.0),
    lambda g: probability_biphoton(pumped_spec(), D1, SpacetimePoint(np.nan, 5.0),
                                   SpacetimePoint(2.0, 4.0), rel_tol=1e-6),
], ids=["point_inf_z", "scan_nan_z", "pair_nan_z1"])
def test_non_finite_points_fail_fast(evaluate):
    with pytest.raises(ValueError, match="finite"):
        evaluate(GaussianPacket(0.75, 0.1))


# ----------------------------------------------------------------------
# biphoton
# ----------------------------------------------------------------------

def pumped_spec():
    return PumpedPair(PUMP, pump_scale=2.0)


def test_biphoton_zero_amplitude_for_zero_pair():
    f = SymmetrizedProduct(GaussianPacket(0.5, 0.2, amplitude=0.0),
                           GaussianPacket(0.7, 0.2))
    r = amplitude_biphoton(f, D1, SpacetimePoint(1.0, 2.0), SpacetimePoint(0.5, 3.0))
    assert r.value == 0.0


def test_biphoton_exchange_symmetry_exact():
    # the sqrt edge of the pumped pair at k = 0 limits reachable relative
    # tolerances to ~1e-6, but detector exchange maps the shared tensor
    # rule onto itself, so the two evaluations agree to round-off anyway
    f = pumped_spec()
    pt1 = SpacetimePoint(3.0, 5.0)
    pt2 = SpacetimePoint(-1.0, 8.0)
    r12 = amplitude_biphoton(f, D1, pt1, pt2, rel_tol=1e-5)
    r21 = amplitude_biphoton(f, D1, pt2, pt1, rel_tol=1e-5)
    assert abs(r12.value - r21.value) <= 1e-12 * abs(r12.value)


def test_probability_exchange_on_random_pairs():
    f = SymmetrizedProduct(GaussianPacket(0.7, 0.3), GaussianPacket(1.0, 0.25))
    rng = np.random.default_rng(3)
    for _ in range(6):
        t1, t2 = rng.uniform(1.0, 12.0, 2)
        v1, v2 = rng.uniform(-0.8, 0.8, 2)
        pt1 = SpacetimePoint(v1 * t1, t1)
        pt2 = SpacetimePoint(v2 * t2, t2)
        p12, _ = probability_biphoton(f, D1, pt1, pt2, rel_tol=1e-9)
        p21, _ = probability_biphoton(f, D1, pt2, pt1, rel_tol=1e-9)
        if p12 > 1e-20:
            assert p12 == pytest.approx(p21, rel=1e-10)


def test_separable_factorization_oracle():
    g1 = GaussianPacket(0.6, 0.3)
    g2 = GaussianPacket(1.1, 0.25)
    f = SymmetrizedProduct(g1, g2)
    rng = np.random.default_rng(11)
    for _ in range(5):
        t1, t2 = rng.uniform(0.0, 10.0, 2)
        z1, z2 = rng.uniform(-8.0, 8.0, 2)
        pt1, pt2 = SpacetimePoint(z1, t1), SpacetimePoint(z2, t2)
        joint = amplitude_biphoton(f, D1, pt1, pt2, rel_tol=1e-10)
        a11 = amplitude_single(g1, D1, pt1, rel_tol=1e-11).value
        a22 = amplitude_single(g2, D1, pt2, rel_tol=1e-11).value
        a12 = amplitude_single(g1, D1, pt2, rel_tol=1e-11).value
        a21 = amplitude_single(g2, D1, pt1, rel_tol=1e-11).value
        expected = a11 * a22 + a12 * a21
        assert abs(joint.value - expected) <= 1e-8 * abs(expected)


def test_biphoton_probability_against_simpson_oracle():
    # dense fixed-grid oracle at reduced times; the sqrt edge at k = 0
    # limits plain Simpson to O(h^1.5), so two grids are Richardson
    # extrapolated at that order
    f = normalize_biphoton(pumped_spec(), (0.0, 2.744))
    pt1 = SpacetimePoint(2.0, 4.0)
    pt2 = SpacetimePoint(1.0, 3.0)
    p, _ = probability_biphoton(f, D1, pt1, pt2, rel_tol=1e-6)

    lo, hi = f.support

    def dense_value(n):
        k = np.linspace(lo, hi, n)
        w1 = D1.omega(k)
        e1 = np.exp(1j * (k * pt1.z - w1 * pt1.t)) / (2 * np.sqrt(2 * np.pi * w1))
        e2 = np.exp(1j * (k * pt2.z - w1 * pt2.t)) / (2 * np.sqrt(2 * np.pi * w1))
        rows = np.empty(n, dtype=complex)
        for i0 in range(0, n, 150):
            sl = slice(i0, min(i0 + 150, n))
            block = f(k[sl][:, None], k[None, :]) * e2[None, :]
            rows[sl] = simpson(block, x=k, axis=1)
        return 2.0 * simpson(rows * e1, x=k)

    coarse, fine = dense_value(3001), dense_value(6001)
    oracle = fine + (fine - coarse) / (2**1.5 - 1)
    assert p == pytest.approx(abs(oracle) ** 2, rel=1e-6)


def test_asymptotic_biphoton_zero_and_coincident_velocities():
    f = pumped_spec()
    # stationary momenta far outside the pump band: probability ~ 0
    r = asymptotic_biphoton(f, D1, 0.05, 0.1, 300.0, 300.0)
    assert r.probability < 1e-30

    # coincident frames: amplitude = 2 x single term, P = 4 |single|^2
    v, t = 1 / np.sqrt(2.0), 500.0
    r = asymptotic_biphoton(f, D1, v, v, t, t)
    k0 = D1.stationary_point(v)
    w0, wdd = D1.omega(k0), D1.omega_dd(k0)
    single = abs(complex(f(k0, k0))) / (4 * t * w0 * wdd)
    assert r.probability == pytest.approx(4 * single**2, rel=1e-12)


def test_asymptotic_biphoton_against_quadrature():
    # wide separable pair: both guards past the threshold at t = 300
    # (t w'' sigma^2 = 18.5 and 11.8), so the leading term should land
    # within a few percent of the exact quadrature
    g1 = GaussianPacket(0.1, 0.25)
    g2 = GaussianPacket(0.6, 0.25)
    f = SymmetrizedProduct(g1, g2)
    t = 300.0
    v1 = float(D1.omega_d(0.1))
    v2 = float(D1.omega_d(0.6))
    asym = asymptotic_biphoton(f, D1, v1, v2, t, t)
    assert asym.guard_ok
    p, err = probability_biphoton(
        f, D1, SpacetimePoint(v1 * t, t), SpacetimePoint(v2 * t, t), rel_tol=1e-7)
    assert p == pytest.approx(asym.probability, rel=0.10)


def test_asymptotic_biphoton_guard_flags():
    f = pumped_spec()  # pump width 0.1 is far below the trust threshold at t = 300
    r = asymptotic_biphoton(f, D1, 0.6, 0.7, 300.0, 300.0)
    assert not r.guard_ok


def test_asymptotic_biphoton_broadcasts_like_scalar_calls():
    f = pumped_spec()
    v1 = np.linspace(0.55, 0.85, 4)[:, None]
    v2 = np.linspace(0.6, 0.8, 3)[None, :]
    r = asymptotic_biphoton(f, D1, v1, v2, 300.0, 500.0)
    # the closed-form probability is the squared modulus of the amplitude
    np.testing.assert_allclose(r.probability, np.abs(r.amplitude) ** 2, rtol=1e-14, atol=0)
    for i, j in np.ndindex(4, 3):
        s = asymptotic_biphoton(f, D1, float(v1[i, 0]), float(v2[0, j]), 300.0, 500.0)
        assert r.probability[i, j] == pytest.approx(s.probability, rel=1e-13)
        assert r.amplitude[i, j] == pytest.approx(s.amplitude, rel=1e-13)
        for arr, val in zip(r.stationary_momenta + r.guard_values,
                            s.stationary_momenta + s.guard_values):
            assert np.broadcast_to(arr, (4, 3))[i, j] == pytest.approx(val, rel=1e-13)
        assert r.guard_ok[i, j] == s.guard_ok


# ----------------------------------------------------------------------
# spacetime profile
# ----------------------------------------------------------------------

def test_profile_rank_one_for_product_pair():
    g = GaussianPacket(0.8, 0.25)
    f = SymmetrizedProduct(g, g)        # identical packets: f = g(k1) g(k2)
    v = np.linspace(0.2, 0.8, 7)
    prof = entangled_spacetime_profile(f, D1, v, v)
    p = prof.values
    for i, j, a, b in [(0, 1, 2, 3), (1, 4, 5, 2), (0, 6, 3, 3)]:
        lhs = p[i, j] * p[a, b]
        rhs = p[i, b] * p[a, j]
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_profile_pumped_pair_ridge():
    # narrow pump concentrates the profile on the anticorrelation ridge
    # k10 + k20 = pump center; on the diagonal that is v = omega'(1)
    f = pumped_spec()
    v = np.linspace(0.45, 0.9, 181)
    prof = entangled_spacetime_profile(f, D1, v, v)
    diag = np.diag(prof.values)
    v_star = v[int(np.argmax(diag))]
    assert v_star == pytest.approx(1 / np.sqrt(2.0), abs=0.01)
    # off-ridge pairs decay hard
    assert prof.values[0, 0] < 1e-6 * diag.max()


def test_profile_flags_lightcone_violations():
    f = pumped_spec()
    prof = entangled_spacetime_profile(f, D1, np.array([0.5, 1.0]), np.array([0.3]))
    assert prof.valid[0, 0]
    assert not prof.valid[1, 0]
    assert prof.values[1, 0] == 0.0


# ----------------------------------------------------------------------
# scans, conservation, wave-equation residual
# ----------------------------------------------------------------------

@pytest.mark.parametrize("v", [0.3, 0.9])
def test_point_rule_converges_in_ray_tails(v):
    # far-tail rays of the criterion-1 packet, where local bisection stalled;
    # the point rule is a one-point scan, bit for bit
    g = normalized_packet(GaussianPacket(0.75, 0.1))
    pt = SpacetimePoint(v * 3000.0, 3000.0)
    r = amplitude_single(g, D1, pt)
    scan = single_scan(g, D1, [pt.z], pt.t)
    assert r.panels_used < 5000
    assert scan.amplitudes[0] == r.value
    assert scan.error_estimates[0] == probability_error(np.abs(r.value), r.error_estimate)


def test_table_scan_panels_start_at_nodes(monkeypatch):
    # table kinks sit on panel edges, so the scan needs no bisection
    # level to resolve them
    k = np.linspace(0.35, 1.15, 21)
    table = TablePacket(k, np.exp(-0.5 * ((k - 0.75) / 0.1) ** 2))
    panels = []
    scan = correlators.osc_integrate_1d_many

    def recording(*args, **kwargs):
        out = scan(*args, **kwargs)
        panels.append(out[2])
        return out

    monkeypatch.setattr(correlators, "osc_integrate_1d_many", recording)
    single_scan(table, D1, np.linspace(540.0, 660.0, 241), 1000.0)
    assert panels[0] <= 200


def test_scan_phase_block_memory_is_bounded():
    # 241 points x ~42k nodes at t = 1e4: the whole phase matrix would be
    # ~160 MB of complex values per array
    g = normalized_packet(GaussianPacket(0.75, 0.1))
    z = np.linspace(6000.0 - 60.0, 6000.0 + 60.0, 241)
    tracemalloc.start()
    try:
        single_scan(g, D1, z, 1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6


@pytest.mark.parametrize("evaluate", [
    lambda: single_scan(GaussianPacket(0.75, 0.1), D1, [], 10.0),
    lambda: biphoton_scan(pumped_spec(), D1, 4.0, 5.0, [], [1.0]),
    lambda: biphoton_scan(pumped_spec(), D1, 4.0, 5.0, [1.0], np.array([])),
], ids=["single_scan", "pair_empty_z1", "pair_empty_z2"])
def test_empty_grids_rejected(evaluate):
    with pytest.raises(ValueError, match="at least one detector position"):
        evaluate()


def test_single_scan_matches_pointwise():
    g = GaussianPacket(0.75, 0.15)
    zs = np.array([-2.0, 0.0, 3.0, 6.0, 9.0])
    res = single_scan(g, D1, zs, 8.0, rel_tol=1e-10)
    np.testing.assert_allclose(res.values, np.abs(res.amplitudes) ** 2, rtol=0, atol=0)
    for z, a in zip(zs, res.amplitudes):
        ref = amplitude_single(g, D1, SpacetimePoint(float(z), 8.0), rel_tol=1e-11)
        assert abs(a - ref.value) <= 1e-9 * abs(ref.value) + 1e-14


PAIR_FAMILIES = {
    "separable": SymmetrizedProduct(GaussianPacket(0.6, 0.3), GaussianPacket(1.0, 0.25)),
    "correlated": CorrelatedGaussian(2.0, 0.15, 0.5),
    "pumped": PumpedPair(PUMP, pump_scale=2.0),
}


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(sorted(PAIR_FAMILIES)), r=st.floats(0.1, 10.0),
       phase=st.one_of(st.sampled_from([1.0, 1j, -1.0, -1j]),
                       st.floats(0.0, 2.0 * np.pi).map(lambda phi: np.exp(1j * phi))))
def test_pair_amplitude_is_homogeneous_in_scale(family, r, phase):
    # A is linear in f, so scale -> c scale gives A -> c A and P -> |c|^2 P.
    # Quarter turns keep f an exact phase times a real function, which the
    # 2-D rule factors in float64; other phases take its complex path
    f = PAIR_FAMILIES[family]
    c = r * phase
    lo, hi = f.support
    t1, t2 = 30.0, 24.0
    v = D1.omega_d(0.5 * (lo + hi)) + np.linspace(-0.2, 0.2, 4)
    a, e, _ = biphoton_scan(f, D1, t1, t2, v * t1, v[:3] * t2, rel_tol=1e-6)
    ac, ec, _ = biphoton_scan(replace(f, scale=c * f.scale), D1, t1, t2, v * t1, v[:3] * t2,
                              rel_tol=1e-6)
    assert (np.abs(ac - c * a) <= ec + abs(c) * e).all()


def test_biphoton_scan_matches_pointwise():
    f = pumped_spec()
    z1 = np.array([2.0, 3.0])
    z2 = np.array([1.5, 2.5])
    amps, errs, _ = biphoton_scan(f, D1, 4.0, 5.0, z1, z2, rel_tol=1e-6)
    for i, a in enumerate(z1):
        for j, b in enumerate(z2):
            ref = amplitude_biphoton(f, D1, SpacetimePoint(float(a), 4.0),
                                     SpacetimePoint(float(b), 5.0), rel_tol=1e-6)
            scale = abs(ref.value) + np.abs(amps).max()
            assert abs(amps[i, j] - ref.value) <= 1e-5 * scale


def test_norm_conservation_and_parseval():
    g = normalized_packet(GaussianPacket(0.75, 0.1))
    target = momentum_norm(g, D1)
    for t in (0.0, 10.0):
        n_t = position_norm(g, D1, t)
        assert n_t == pytest.approx(target, rel=1e-6)


def test_wave_operator_residual_quarters_with_step():
    g = normalized_packet(GaussianPacket(0.75, 0.1))
    z, t = 12.0, 20.0
    r1, a1 = kg_residual(g, D1, z, t, h=2e-2)
    r2, _ = kg_residual(g, D1, z, t, h=1e-2)
    assert abs(r1) / a1 < 1e-2            # residual is small to begin with
    ratio = abs(r1) / abs(r2)
    assert 3.5 < ratio < 4.5


def test_point_probabilities_are_scan_results():
    # P = |A|^2 and its error have one definition, CorrelationResult, so a
    # point and a one-point scan agree bit for bit
    g = GaussianPacket(0.75, 0.1)
    scan = single_scan(g, D1, [12.0], 20.0)
    assert probability_single(g, D1, SpacetimePoint(12.0, 20.0)) == (
        scan.values[0], scan.error_estimates[0])
    f = pumped_spec()
    pair = biphoton_scan(f, D1, 4.0, 5.0, [3.0], [2.0], rel_tol=1e-6)
    assert probability_biphoton(f, D1, SpacetimePoint(3.0, 4.0), SpacetimePoint(2.0, 5.0),
                                rel_tol=1e-6) == (pair.values[0, 0], pair.error_estimates[0, 0])
    amps, errs, panels = pair
    assert (pair.amplitudes is amps) and (pair.amp_errors is errs) and panels == pair.panels


@pytest.mark.parametrize("t", [np.inf, np.nan, np.array([50.0, np.inf])])
def test_asymptotics_reject_a_time_that_is_not_finite(t):
    # at t = inf the single value was P = 0 with a NaN amplitude and guard_ok True
    with pytest.raises(ValueError, match="^asymptotics requires a finite t > 0, got"):
        asymptotic_single(GaussianPacket(0.75, 0.1), D1, 0.5, t)
    f = SymmetrizedProduct(GaussianPacket(0.7, 0.1), GaussianPacket(1.1, 0.1))
    for t1, t2 in ((t, 10.0), (10.0, t)):
        with pytest.raises(ValueError, match=r"^asymptotics requires t1, t2 > 0$"):
            asymptotic_biphoton(f, D1, 0.5, 0.5, t1, t2)


@pytest.mark.parametrize("t1, t2", [(0.0, 50.0), (50.0, -1.0), (np.array([50.0, 0.0]), 50.0)],
                         ids=["t1_zero", "t2_negative", "one_t1_zero"])
def test_pair_asymptotics_rejects_nonpositive_times(t1, t2):
    f = SymmetrizedProduct(GaussianPacket(0.7, 0.1), GaussianPacket(1.1, 0.1))
    with pytest.raises(ValueError, match=r"^asymptotics requires t1, t2 > 0$"):
        asymptotic_biphoton(f, DispersionRelation(1.0), 0.3, 0.5, t1, t2)
