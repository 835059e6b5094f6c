import subprocess
import sys

import numpy as np
import pytest
from dataclasses import replace

from wgcorr import (
    DispersionRelation,
    GaussianPacket,
    PumpedPair,
    SlopeFit,
    SpacetimePoint,
    SymmetrizedProduct,
    asymptotic_biphoton,
    biphoton_scan,
    check_lightcone_decay,
    decay_slope_fit,
    fit_universal_bound,
    normalize_biphoton,
    single_scan,
)
from wgcorr import bounds, quadrature
from wgcorr.bounds import Ray, bound_fit_csv_rows, summarize_bound_fits
from wgcorr.correlators import probability_error

D1 = DispersionRelation(1.0)
PUMP = GaussianPacket(center=2.0, width=0.1)


# ----------------------------------------------------------------------
# slope fitting
# ----------------------------------------------------------------------

def test_slope_fit_exact_power_law():
    x = np.geomspace(1.0, 100.0, 12)
    fit = decay_slope_fit(x, x**-2.0)
    assert fit.slope == pytest.approx(-2.0, abs=1e-10)
    assert fit.half_width_95 < 1e-9


@pytest.mark.parametrize("n, half_width", [(7, 0.03837781804602929), (30, 0.018460112436000292)])
def test_slope_fit_half_width_unchanged(n, half_width):
    # half-widths from scipy.special.stdtrit
    x = np.geomspace(1.0, 100.0, n)
    fit = decay_slope_fit(x, x**-3.0 * np.exp(0.1 * np.sin(7.0 * x)))
    assert fit.half_width_95 == pytest.approx(half_width, rel=1e-13)


@pytest.mark.parametrize("n_used", [0, 1, 2])
def test_slope_fit_half_width_is_infinite_below_three_samples(n_used):
    # a line through fewer than 3 points has no residual degree of freedom
    assert SlopeFit(-2.0, 0.1, n_used, 0).half_width_95 == np.inf


SLOPE_PROBE = """
import sys
import numpy as np
from wgcorr.bounds import decay_slope_fit
x = np.geomspace(1.0, 100.0, 7)
fit = decay_slope_fit(x, x**-3.0 * np.exp(0.1 * np.sin(7.0 * x)))
print("scipy" in sys.modules, fit.half_width_95 > 0, "scipy.special" in sys.modules)
"""


def test_slope_fit_imports_scipy_only_for_its_half_width():
    # scipy.special costs about 0.33 s of start-up, and only the 95% half-width needs it
    out = subprocess.run([sys.executable, "-c", SLOPE_PROBE], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "True", "True"]


def test_slope_fit_constant():
    x = np.geomspace(1.0, 50.0, 8)
    fit = decay_slope_fit(x, np.full(8, 0.37))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_slope_fit_excludes_nonpositive():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    p = x**-1.5
    p[3] = 0.0
    fit = decay_slope_fit(x, p)
    assert fit.n_excluded == 1
    assert fit.n_used == 6
    assert fit.slope == pytest.approx(-1.5, abs=1e-10)


X8 = np.geomspace(1.0, 50.0, 8)


@pytest.mark.parametrize("x, p, name", [
    (X8, np.r_[X8[:-1] ** -2.0, np.inf], "p"),
    (X8, np.r_[X8[:-1] ** -2.0, np.nan], "p"),
    (np.r_[0.0, X8[1:]], X8 ** -2.0, "x"),
    (np.r_[-1.0, X8[1:]], X8 ** -2.0, "x"),
    (np.r_[np.nan, X8[1:]], X8 ** -2.0, "x"),
    (np.full(8, 3.0), X8 ** -2.0, "x"),
], ids=["p_inf", "p_nan", "x_zero", "x_negative", "x_nan", "x_constant"])
def test_slope_fit_rejects_bad_input(x, p, name):
    with pytest.raises(ValueError, match=rf"needs .*\b{name}\b"):
        decay_slope_fit(x, p)


def test_slope_fit_needs_five_points():
    with pytest.raises(ValueError):
        decay_slope_fit(np.array([1.0, 2.0, 4.0, 8.0]), np.array([1.0, 0.5, 0.2, 0.1]))


# ----------------------------------------------------------------------
# universal bound
# ----------------------------------------------------------------------

def small_pair():
    return PumpedPair(PUMP, pump_scale=2.0)


def small_grid_fit(f):
    v = np.linspace(0.6, 0.8, 5)
    return fit_universal_bound(f, D1, [(25.0, 25.0), (50.0, 50.0)], v, v, rel_tol=1e-5)


def test_zero_pair_gives_zero_constant():
    f = SymmetrizedProduct(GaussianPacket(0.7, 0.2, amplitude=0.0),
                           GaussianPacket(0.9, 0.2))
    fit = small_grid_fit(f)
    assert fit.constant == 0.0
    assert fit.max_violation <= 0.0


def test_universal_bound_holds_by_construction():
    f = small_pair()
    fit = small_grid_fit(f)
    assert fit.max_violation <= 1e-9 * max(fit.constant, 1e-300)
    # tight: the supremum is attained on the grid, so any smaller C
    # would be violated there
    assert fit.max_violation >= -1e-9 * fit.constant
    assert fit.constant > 0
    assert fit.t_offset == 1e-2 / D1.mass
    assert fit.refinement_drift is not None
    # C is the supremum over the coarse nodes of P (t0+|t1|)(t0+|t2|)
    v = np.linspace(0.6, 0.8, 5)
    fine = quadrature._midpoint_split(v, np.ones(4, dtype=bool))
    np.testing.assert_array_equal(fine[::2], v)
    weighted = []
    for t in (25.0, 50.0):
        amps, _, _ = biphoton_scan(f, D1, t, t, fine * t, fine * t, 1e-5)
        weighted.append(np.abs(amps[::2, ::2]).max() ** 2 * (fit.t_offset + t) ** 2)
    assert fit.constant == pytest.approx(max(weighted), rel=1e-12)
    assert fit.asymptotic_constant is not None and fit.asymptotic_constant > 0


def test_asymptotic_constant_is_taken_on_the_grid_of_the_constant():
    # C is the supremum over the coarse velocity nodes, and so is the
    # large-time limit it is compared with, not over the refined grid
    f = small_pair()
    v1, v2 = np.linspace(0.6, 0.8, 5), np.linspace(0.65, 0.75, 3)
    fit = fit_universal_bound(f, D1, [(25.0, 25.0)], v1, v2, rel_tol=1e-5)
    limit = asymptotic_biphoton(f, D1, v1[:, None], v2[None, :], 1.0, 1.0).probability
    assert fit.asymptotic_constant == limit.max()
    fine = [quadrature._midpoint_split(v, np.ones(v.size - 1, dtype=bool)) for v in (v1, v2)]
    finer = asymptotic_biphoton(f, D1, fine[0][:, None], fine[1][None, :], 1.0, 1.0)
    assert finer.probability.max() > fit.asymptotic_constant


def test_homogeneity_quadratic_in_pair_amplitude():
    # P = |A|^2 with A linear in f: doubling f quadruples every constant
    f = small_pair()
    fit1 = small_grid_fit(f)
    fit2 = small_grid_fit(replace(f, scale=2.0 * f.scale))
    assert fit2.constant / fit1.constant == pytest.approx(4.0, rel=1e-6)


def test_bound_constant_approaches_asymptotic_constant_from_below():
    # pumped pair on three velocities around the ridge v = 1/sqrt(2): the
    # quadrature sup P t^2 closes in on the stationary-phase weight as t grows
    f = small_pair()
    f = normalize_biphoton(f, f.support)
    v = 1.0 / np.sqrt(2.0) + 0.035 * np.array([-1.0, 0.0, 1.0])
    gaps = []
    for t in (800.0, 2000.0, 4000.0):
        fit = fit_universal_bound(f, D1, [(t, t)], v, v)
        gaps.append((fit.asymptotic_constant - fit.constant) / fit.asymptotic_constant)
    assert gaps[0] > gaps[1] > gaps[2] > 0
    # at t = 4000 the fitted C is the quadrature supremum, not the leading term
    z = quadrature._midpoint_split(v, np.ones(2, dtype=bool)) * t
    amps, errs, _ = biphoton_scan(f, D1, t, t, z, z, 1e-6)
    coarse = np.abs(amps[::2, ::2])
    worst = np.unravel_index(int(np.argmax(coarse)), coarse.shape)
    weight = (fit.t_offset + t) ** 2
    p_error = probability_error(coarse[worst], errs[::2, ::2][worst])
    assert abs(fit.constant - coarse[worst] ** 2 * weight) <= p_error * weight


def test_mirrored_time_pair_reuses_transposed_scan(monkeypatch):
    import wgcorr.bounds as bounds

    scan = bounds.biphoton_scan
    calls = []

    def recording_scan(f, d, t1, t2, z1, z2, rel_tol, **kw):
        out = scan(f, d, t1, t2, z1, z2, rel_tol, **kw)
        calls.append((t1, t2, z1, z2, out))
        return out

    monkeypatch.setattr(bounds, "biphoton_scan", recording_scan)
    f = small_pair()
    v = np.linspace(0.6, 0.8, 5)
    fit = fit_universal_bound(f, D1, [(25.0, 40.0), (40.0, 25.0)], v, v, rel_tol=1e-5)
    assert [(t1, t2) for t1, t2, *_ in calls] == [(25.0, 40.0)]
    _, _, z1, z2, (amps, errs, _) = calls[0]
    fresh, fresh_errs, _ = scan(f, D1, 40.0, 25.0, z2, z1, 1e-5)
    assert (np.abs(fresh - amps.T) <= fresh_errs).all()


V_OK = np.linspace(0.6, 0.8, 5)


@pytest.mark.parametrize("t_pairs, v1, v2, name", [
    ([], V_OK, V_OK, "t_pairs"),
    ([(50.0,)], V_OK, V_OK, "t_pairs"),
    ([(50.0, 50.0)], np.array([]), V_OK, "v1_grid"),
    ([(50.0, 50.0)], np.full((2, 3), 0.7), V_OK, "v1_grid"),
    ([(50.0, 50.0)], np.array([0.7, 1.05]), V_OK, "v1_grid"),
    ([(50.0, 50.0)], V_OK, np.array([-1.05, 0.7]), "v2_grid"),
], ids=["no_pairs", "short_pair", "empty_v1", "2d_v1", "superluminal_v1",
        "superluminal_v2"])
def test_universal_bound_refuses_bad_input_before_scanning(monkeypatch, t_pairs, v1, v2,
                                                           name):
    def refuse(*args, **kwargs):
        raise AssertionError("scanned before the input was checked")

    monkeypatch.setattr(bounds, "biphoton_scan", refuse)
    with pytest.raises(ValueError, match=name):
        fit_universal_bound(small_pair(), D1, t_pairs, v1, v2)


# ----------------------------------------------------------------------
# outside the light cone
# ----------------------------------------------------------------------

def test_ray_requires_outside_cone_samples():
    with pytest.raises(ValueError):
        Ray(t=50.0, z_values=np.array([40.0, 60.0]))


def test_single_photon_lightcone_decay():
    g = GaussianPacket(0.75, 0.1)
    ray = Ray(t=50.0, z_values=np.linspace(60.0, 100.0, 21))
    report = check_lightcone_decay(g, D1, ray, orders=range(0, 7))
    assert report.verdict == "pass"
    np.testing.assert_array_equal(report.probabilities,
                                  single_scan(g, D1, ray.z_values, ray.t).values)
    fit6 = [f for f in report.fits if f.orders[0] == 6][0]
    assert np.isfinite(fit6.constant) and fit6.constant > 0
    # global slope is far steeper than -6 for a Gaussian envelope
    assert report.slope.slope <= -6.0
    fit0 = [f for f in report.fits if f.orders[0] == 0][0]
    assert fit0.constant > 0          # plain sup of P over the region


def test_below_floor_points_flagged():
    g = GaussianPacket(0.75, 0.1)
    ray = Ray(t=50.0, z_values=np.linspace(60.0, 160.0, 26))
    report = check_lightcone_decay(g, D1, ray, orders=[6])
    assert report.fits[0].n_below_floor > 0
    assert report.verdict == "pass"


def test_inconclusive_when_everything_below_floor():
    g = GaussianPacket(0.75, 0.1)
    ray = Ray(t=50.0, z_values=np.linspace(400.0, 500.0, 8))
    report = check_lightcone_decay(g, D1, ray, orders=[2])
    assert report.verdict == "inconclusive"


def test_lightcone_onset_follows_last_failing_window(monkeypatch):
    # log-log slope -8, then -2 on 15 <= z < 25, then -8 again: the onset of
    # order n is the first z of the window after the last one whose 5-point
    # fit is above -n, not the first window that holds
    z = np.arange(10.0, 40.0)
    lx = np.log(1.0 + z)
    rate = np.where((z >= 15.0) & (z < 25.0), -2.0, -8.0)[:-1]
    P = np.exp(np.r_[0.0, np.cumsum(rate * np.diff(lx))])
    monkeypatch.setattr(bounds, "_ray_probabilities", lambda *args: P)
    report = check_lightcone_decay(None, D1, Ray(t=5.0, z_values=z), orders=[1, 4, 9])
    local = np.array([decay_slope_fit(1.0 + z[i:i + 5], P[i:i + 5]).slope
                      for i in range(z.size - 4)])
    assert local[0] <= -4.0
    onset_4 = z[np.flatnonzero(local > -4.0)[-1] + 1]
    assert 35.0 > onset_4 > 15.0
    radii = [f.diagnostics["onset_radii"][0] for f in report.fits]
    np.testing.assert_array_equal(radii, [10.0, onset_4, np.nan])
    assert report.verdict == "fail"


def test_biphoton_ray_matches_single_photon_shape():
    # freezing one detector inside the cone reproduces the single-photon
    # decay rate along the other ray, for a separable pair
    g = GaussianPacket(0.75, 0.1)
    f = SymmetrizedProduct(g, g)
    zs = np.linspace(60.0, 90.0, 16)
    single = check_lightcone_decay(g, D1, Ray(t=50.0, z_values=zs), orders=[6])
    frozen = SpacetimePoint(30.0, 50.0)
    joint = check_lightcone_decay(f, D1, Ray(t=50.0, z_values=zs, frozen=frozen),
                                  orders=[6], rel_tol=1e-7)
    assert joint.verdict == "pass"
    s1 = single.slope.slope
    s2 = joint.slope.slope
    assert s2 == pytest.approx(s1, rel=0.05)


def test_frozen_detector_weights_both_distances():
    g = GaussianPacket(0.75, 0.1)
    f = SymmetrizedProduct(g, g)
    zs = np.linspace(60.0, 90.0, 16)
    frozen = SpacetimePoint(30.0, 50.0)
    report = check_lightcone_decay(f, D1, Ray(t=50.0, z_values=zs, frozen=frozen),
                                   orders=[0, 3], rel_tol=1e-7)
    P = report.probabilities
    usable = P > bounds.PROBABILITY_FLOOR
    assert usable.sum() >= 5
    for fit, n in zip(report.fits, (0, 3)):
        assert fit.orders == (n, n)
        expected = (P[usable] * (1.0 + zs[usable]) ** n).max() * (1.0 + frozen.z) ** n
        assert fit.constant == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("orders", [[], [2.5, 4], [-3], [np.nan]],
                         ids=["empty", "fractional", "negative", "nan"])
def test_lightcone_refuses_bad_orders_before_scanning(monkeypatch, orders):
    def refuse(*args, **kwargs):
        raise AssertionError("scanned before the orders were checked")

    monkeypatch.setattr(bounds, "_ray_probabilities", refuse)
    with pytest.raises(ValueError, match="orders"):
        check_lightcone_decay(None, D1, Ray(t=5.0, z_values=np.arange(10.0, 20.0)), orders)


# ----------------------------------------------------------------------
# report emission
# ----------------------------------------------------------------------

def test_csv_rows_and_summary():
    fit = small_grid_fit(small_pair())
    header, rows = bound_fit_csv_rows([fit])
    assert header[0] == "bound_kind"
    assert len(rows) == 1 and rows[0][0] == "two_photon_universal"
    text = summarize_bound_fits([fit])
    assert "two_photon_universal" in text
    assert "holds on grid" in text


@pytest.mark.parametrize("frozen, n2, constants", [
    (None, (0, 0), (5.644739300537774e-07, 27.0)),
    (SpacetimePoint(3.0, 5.0), (2, 9), (9.031582880860439e-06, 7077888.0)),
], ids=["packet_ray", "frozen_pair_ray"])
def test_one_ray_report_renders_bound_rows_and_summary(monkeypatch, frozen, n2, constants):
    # P falls like (1 + z)^-8 with its last three samples below the floor:
    # order 2 holds from the first sample, order 9 never.  The expected rows
    # and summary are pinned byte for byte: grid "1 rays", all 20 samples
    # counted, and the onset radius in a one-element list
    z = np.arange(10.0, 30.0)
    P = (1.0 + z) ** -8.0
    P[-3:] = 1e-30
    monkeypatch.setattr(bounds, "_ray_probabilities", lambda *args: P)
    report = check_lightcone_decay(None, D1, Ray(t=5.0, z_values=z, frozen=frozen), [2, 9])
    assert report.verdict == "fail"
    _, rows = bound_fit_csv_rows(report.fits)
    assert rows == [("outside_lightcone", n, m, c, "", 0.0, "", "", 20, 3, "1 rays")
                    for n, m, c in zip((2, 9), n2, constants)]
    assert summarize_bound_fits(report.fits) == "".join(
        f"bound: outside_lightcone\n  orders: n1={n} n2={m}\n  constant: {c:.9e}\n"
        f"  max_violation: 0.000e+00 (holds on grid)\n  grid: 1 rays\n"
        f"  below_floor_points: 3\n  onset_radii: [{r}]\n"
        for n, m, c, r in zip((2, 9), n2, constants, ("10.0", "nan")))
