import numpy as np
import pytest

from wgcorr import DispersionRelation


def test_omega_known_values():
    assert DispersionRelation(1.0).omega(0.0) == 1.0
    assert DispersionRelation(4.0).omega(3.0) == 5.0          # 3-4-5 triangle
    assert DispersionRelation(1.0).omega(0.75) == 1.25


def test_derivative_known_values():
    d = DispersionRelation(1.0)
    assert d.omega_d(0.0) == 0.0
    assert d.omega_dd(0.0) == 1.0
    assert d.omega_d(0.75) == pytest.approx(0.6, abs=1e-15)


def test_stationary_point_values():
    d = DispersionRelation(1.0)
    assert d.stationary_point(0.0) == 0.0
    assert d.stationary_point(0.6) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("v", [1.0, -1.0, 1.5, np.inf, np.array([0.2, -1.0, 0.5])])
def test_stationary_point_rejects_superluminal(v):
    with pytest.raises(ValueError):
        DispersionRelation(1.0).stationary_point(v)


@pytest.mark.parametrize("mass", [0.0, -1.0, np.nan])
def test_mass_must_be_positive(mass):
    with pytest.raises(ValueError):
        DispersionRelation(mass)


def test_round_trip_group_velocity():
    d = DispersionRelation(2.5)
    vs = np.linspace(-0.99, 0.99, 67)
    for v in vs:
        k0 = d.stationary_point(v)
        assert abs(d.omega_d(k0) - v) < 1e-12
    # the array form gives the scalar values exactly
    k_all = d.stationary_point(vs.reshape(67, 1))
    assert k_all.shape == (67, 1)
    np.testing.assert_array_equal(k_all[:, 0], [d.stationary_point(v) for v in vs])


def test_omega_bounded_below_by_mass():
    d = DispersionRelation(0.7)
    k = np.linspace(-30, 30, 1001)
    w = d.omega(k)
    assert (w >= d.mass).all()
    assert w[500] == d.mass and k[500] == 0.0
    assert (d.omega_dd(k) > 0).all()


def test_analytic_derivatives_match_finite_differences():
    # central differences should close the gap like h^2: quartering per halving
    d = DispersionRelation(1.3)
    k = 0.8
    errs_d, errs_dd = [], []
    for h in (1e-2, 5e-3):
        fd1 = (d.omega(k + h) - d.omega(k - h)) / (2 * h)
        fd2 = (d.omega(k + h) - 2 * d.omega(k) + d.omega(k - h)) / h**2
        errs_d.append(abs(fd1 - d.omega_d(k)))
        errs_dd.append(abs(fd2 - d.omega_dd(k)))
    assert 3.5 < errs_d[0] / errs_d[1] < 4.5
    assert 3.5 < errs_dd[0] / errs_dd[1] < 4.5


def test_parity():
    d = DispersionRelation(0.4)
    k = np.linspace(0.01, 5.0, 57)
    np.testing.assert_allclose(d.omega(-k), d.omega(k), rtol=0, atol=0)
    np.testing.assert_allclose(d.omega_d(-k), -d.omega_d(k), rtol=0, atol=0)
    np.testing.assert_allclose(d.omega_dd(-k), d.omega_dd(k), rtol=0, atol=0)
