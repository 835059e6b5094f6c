"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (run with -s to see them live).
Criteria 1 and 2 are implemented exactly as stated; for the configured
narrow packet (width 0.1) the large-time expansion parameter
t * omega'' * width^2 only reaches ~5 by t = 1000, and the measured
quadrature/asymptotics gap at t = 200 is ~28%, far above the stated 5%,
with the correction decaying with a measured log-log slope of about -1.5
rather than t^-1/2.  Those two
tests therefore fail honestly; the numbers are carried in the assertion
messages.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import bisect
from scipy.special import j0

from wgcorr import (
    Disk,
    DispersionRelation,
    GaussianPacket,
    PumpedPair,
    Rectangle,
    SpacetimePoint,
    SymmetrizedProduct,
    CorrelatedGaussian,
    amplitude_biphoton,
    amplitude_single,
    asymptotic_single,
    biphoton_scan,
    check_lightcone_decay,
    decay_slope_fit,
    fd_spectrum,
    fit_universal_bound,
    kg_residual,
    momentum_norm,
    normalize_biphoton,
    normalized_packet,
    position_norm,
    probability_single,
)
from wgcorr.bounds import Ray
from wgcorr.quadrature import osc_integrate_1d_many

D1 = DispersionRelation(1.0)
PACKET = normalized_packet(GaussianPacket(center=0.75, width=0.1))
V_RAY = 0.6


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def ray_scan(t_values):
    """Quadrature and leading-order P along z = v t, plus scan wall time."""
    quad, asym = [], []
    t0 = time.perf_counter()
    for t in t_values:
        p, _ = probability_single(PACKET, D1, SpacetimePoint(V_RAY * t, t),
                                  rel_tol=1e-10)
        quad.append(p)
        asym.append(asymptotic_single(PACKET, D1, V_RAY, t).probability)
    return np.asarray(quad), np.asarray(asym), time.perf_counter() - t0


def test_criterion_01_stationary_phase_convergence():
    ts = np.geomspace(200.0, 1000.0, 21)
    quad, asym, elapsed = ray_scan(ts)
    rel = np.abs(quad - asym) / asym
    ok = bool((rel <= 0.05).all() and elapsed <= 60.0)
    report(1, ok,
           f"max |P_quad - P_asym|/P_asym = {rel.max():.3f} on t in [200, 1000] "
           f"(tolerance 0.05), scan time {elapsed:.1f}s (limit 60s)")


def test_criterion_02_correction_order():
    ts = np.geomspace(100.0, 1000.0, 25)
    quad, asym, _ = ray_scan(ts)
    fit = decay_slope_fit(ts, np.abs(ts * quad - ts * asym))
    ok = bool(abs(fit.slope - (-0.5)) <= 0.15)
    report(2, ok,
           f"log-log slope of |t P - t P_asym| = {fit.slope:.3f} "
           f"(expected -0.5 +- 0.15)")


def test_criterion_03_universal_bound():
    pump = GaussianPacket(center=2.0, width=0.1)
    f = normalize_biphoton(PumpedPair(pump, pump_scale=2.0), (0.0, 2.744))
    # velocity grid holds the pair-weight ridge node v = omega'(1) = 0.7071
    h = 0.035
    centre = 1.0 / np.sqrt(2.0)
    v = centre + h * (np.arange(10) - 5)
    t_diag = np.geomspace(50.0, 800.0, 4)
    t_pairs = [(t, t) for t in t_diag] + [(50.0, 800.0), (800.0, 50.0)]
    t0 = time.perf_counter()
    fit = fit_universal_bound(f, D1, t_pairs, v, v, rel_tol=1e-6)
    elapsed = time.perf_counter() - t0
    ok = bool(fit.max_violation <= 0.0 and fit.refinement_drift < 0.10
              and elapsed <= 300.0)
    report(3, ok,
           f"C = {fit.constant:.6e}, max_violation = {fit.max_violation:.2e}, "
           f"refinement drift = {fit.refinement_drift:.2%} (limit 10%), "
           f"runtime {elapsed:.0f}s (limit 300s)")


def test_criterion_04_lightcone_decay():
    zs = np.linspace(60.0, 100.0, 21)
    report_lc = check_lightcone_decay(PACKET, D1, Ray(t=50.0, z_values=zs),
                                      orders=[6], rel_tol=1e-10)
    slope = report_lc.slope.slope
    fit6 = report_lc.fits[0]
    accounted = fit6.n_points == fit6.n_below_floor + report_lc.slope.n_used
    ok = bool(report_lc.verdict == "pass" and slope <= -6.0 and accounted)
    report(4, ok,
           f"fitted slope = {slope:.1f} (require <= -6), verdict = "
           f"{report_lc.verdict}, below-floor points = {fit6.n_below_floor}")


def test_criterion_05_wave_equation_residual():
    z, t = 12.0, 20.0
    r1, a1 = kg_residual(PACKET, D1, z, t, h=1e-2, rel_tol=1e-13)
    r2, _ = kg_residual(PACKET, D1, z, t, h=5e-3, rel_tol=1e-13)
    ratio = abs(r1) / abs(r2)
    ok = bool(abs(ratio - 4.0) <= 0.5)
    report(5, ok, f"residual ratio h=1e-2 vs 5e-3: {ratio:.3f} (expected 4.0 +- 0.5)")


def test_criterion_06_norm_conservation():
    target = momentum_norm(PACKET, D1)
    norms = {t: position_norm(PACKET, D1, t) for t in (0.0, 10.0, 100.0)}
    worst = max(abs(n - target) / target for n in norms.values())
    spread = (max(norms.values()) - min(norms.values())) / target
    ok = bool(worst <= 1e-6 and spread <= 1e-6)
    report(6, ok,
           f"norm drift vs momentum integral = {worst:.2e}, spread over "
           f"t in {{0,10,100}} = {spread:.2e} (tolerance 1e-6)")


def test_criterion_07_separable_factorization():
    g1 = GaussianPacket(0.6, 0.3)
    g2 = GaussianPacket(1.0, 0.25)
    f = SymmetrizedProduct(g1, g2)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        t1, t2 = rng.uniform(1.0, 10.0, 2)
        v1, v2 = rng.uniform(0.3, 0.8, 2)
        pt1 = SpacetimePoint(float(v1 * t1 + rng.uniform(-1, 1)), float(t1))
        pt2 = SpacetimePoint(float(v2 * t2 + rng.uniform(-1, 1)), float(t2))
        joint = amplitude_biphoton(f, D1, pt1, pt2, rel_tol=1e-11).value
        expected = (
            amplitude_single(g1, D1, pt1, rel_tol=1e-12).value
            * amplitude_single(g2, D1, pt2, rel_tol=1e-12).value
            + amplitude_single(g1, D1, pt2, rel_tol=1e-12).value
            * amplitude_single(g2, D1, pt1, rel_tol=1e-12).value)
        worst = max(worst, abs(joint - expected) / abs(expected))
    ok = bool(worst <= 1e-8)
    report(7, ok, f"max relative factorization mismatch over 100 random "
                  f"spacetime pairs = {worst:.2e} (tolerance 1e-8)")


def test_criterion_08_exchange_symmetry():
    pump = GaussianPacket(center=2.0, width=0.1)
    families = {
        "separable": SymmetrizedProduct(GaussianPacket(0.6, 0.3),
                                        GaussianPacket(1.0, 0.25)),
        "gaussian_correlated": CorrelatedGaussian(2.0, 0.15, 0.5),
        "pumped_pair": PumpedPair(pump, pump_scale=2.0),
    }
    rng = np.random.default_rng(77)
    t1, t2 = 4.0, 6.5
    worst = {}
    for name, f in families.items():
        lo, hi = f.support
        vmid = D1.omega_d(0.5 * (lo + hi))
        z1 = np.sort(t1 * (vmid + rng.uniform(-0.2, 0.2, 10)))
        z2 = np.sort(t2 * (vmid + rng.uniform(-0.2, 0.2, 10)))
        a12, _, _ = biphoton_scan(f, D1, t1, t2, z1, z2, rel_tol=1e-6)
        a21, _, _ = biphoton_scan(f, D1, t2, t1, z2, z1, rel_tol=1e-6)
        p12 = np.abs(a12) ** 2
        p21 = np.abs(a21.T) ** 2
        mask = p12 > 1e-12 * p12.max()
        worst[name] = float(np.max(np.abs(p12 - p21)[mask] / p12[mask]))
    worst_all = max(worst.values())
    ok = bool(worst_all <= 1e-10)
    report(8, ok, "max relative exchange asymmetry over 100 pairs per family: "
                  + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
                  + " (tolerance 1e-10)")


def test_criterion_09_mode_solver():
    e64 = abs(fd_spectrum(Rectangle(np.pi, np.pi), 1, np.pi / 64).cutoff_masses[0] ** 2 - 2.0)
    e128 = abs(fd_spectrum(Rectangle(np.pi, np.pi), 1, np.pi / 128).cutoff_masses[0] ** 2 - 2.0)
    ratio = e64 / e128
    disk_m = fd_spectrum(Disk(1.0), 1, 1 / 64).cutoff_masses[0]
    j0_zero = bisect(j0, 2.0, 3.0, xtol=1e-12)
    disk_rel = abs(disk_m - j0_zero) / j0_zero
    ok = bool(e64 / 2.0 < 0.01 and abs(ratio - 4.0) <= 1.0 and disk_rel < 0.02)
    report(9, ok,
           f"square m^2 error {e64 / 2.0:.2%} (<1%), Richardson ratio "
           f"{ratio:.2f} (4 +- 1), disk m1 error {disk_rel:.2%} (<2%)")


def test_criterion_10_quadrature_oracle():
    rng = np.random.default_rng(123)
    failures = []
    for case in range(50):
        m = rng.uniform(0.5, 2.0)
        d = DispersionRelation(m)
        centre = rng.uniform(-1.0, 1.5)
        width = rng.uniform(0.15, 0.8)
        t = rng.uniform(0.0, 100.0)
        v = rng.uniform(-0.9, 0.9)
        z = v * t + rng.uniform(-3.0, 3.0)
        tol = 10.0 ** rng.uniform(-9.0, -6.0)
        dom = (centre - 7.44 * width, centre + 7.44 * width)

        def env(k, centre=centre, width=width):
            return np.exp(-0.5 * ((k - centre) / width) ** 2) + 0.0j

        value = osc_integrate_1d_many(env, d, [z], t, dom, rel_tol=tol)[0][0]
        # dense fixed-step oracle on 2e6+1 points (Simpson weights: a plain
        # midpoint sum cannot certify the 1e-12 floor at these phase rates)
        k = np.linspace(dom[0], dom[1], 2_000_001)
        vals = env(k) * np.exp(1j * (k * z - d.omega(k) * t))
        oracle = simpson(vals, x=k)
        bound = max(10 * tol * abs(value), 1e-12)
        if abs(value - oracle) > bound:
            failures.append((case, abs(value - oracle), bound))
    ok = not failures
    report(10, ok, f"50-case random suite vs dense oracle: "
                   f"{len(failures)} cases outside max(10 tol |I|, 1e-12)")
