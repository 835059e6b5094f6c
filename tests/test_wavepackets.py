import re
from dataclasses import replace

import numpy as np
import pytest

from wgcorr import (
    CorrelatedGaussian,
    GaussianPacket,
    PumpedPair,
    SymmetrizedProduct,
    TablePacket,
    biphoton_norm,
    load_table_packet,
    normalize_biphoton,
    normalized_packet,
    packet_norm,
)

# pump spec matching exp(-(K-2)^2/0.02), i.e. width 0.1 around 2
PUMP = GaussianPacket(center=2.0, width=0.1)


def test_gaussian_peak_values():
    assert GaussianPacket(0.0, 1.0)(0.0) == 1.0
    g = GaussianPacket(0.75, 0.1, amplitude=2.5 - 1.0j)
    assert g(0.75) == 2.5 - 1.0j


def test_zero_outside_support():
    t = TablePacket(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0], dtype=complex))
    assert t(2.5) == 0.0 and t(-0.1) == 0.0


def test_default_support_from_envelope_cutoff():
    g = GaussianPacket(0.3, 0.2)
    lo, hi = g.support
    # envelope at the support edge sits at the 1e-12 cutoff
    assert abs(abs(g(hi - 1e-12)) / abs(g.amplitude) - 1e-12) < 1e-13
    assert np.isclose(hi - 0.3, 0.3 - lo)


def test_support_follows_center_and_width():
    # a replaced centre or width moves the support with it, so nothing clips
    moved = replace(GaussianPacket(0.0, 1.0), center=5.0)
    assert moved.support == GaussianPacket(5.0, 1.0).support
    assert moved(9.0) == GaussianPacket(5.0, 1.0)(9.0) == pytest.approx(np.exp(-8.0))
    assert replace(GaussianPacket(0.0, 1.0), width=2.0).support == GaussianPacket(0.0, 2.0).support


def test_width_must_be_positive():
    with pytest.raises(ValueError):
        GaussianPacket(0.0, -1.0)
    with pytest.raises(ValueError):
        GaussianPacket(0.0, 0.0)


def test_table_grid_must_increase():
    with pytest.raises(ValueError):
        TablePacket(np.array([0.0, 0.0, 1.0]), np.zeros(3, dtype=complex))


@pytest.mark.parametrize("k, values", [
    (np.linspace(0.5, 1.5, 11), [1.0] * 5 + [np.nan] + [1.0] * 5),
    (np.array([0.5, 1.0, np.inf]), np.ones(3)),
], ids=["nan_value", "inf_grid"])
def test_table_must_be_finite(k, values):
    with pytest.raises(ValueError, match="finite"):
        TablePacket(k, values)


def test_pumped_pair_needs_pump_support_above_zero():
    # a pump below k1 + k2 = 0 would give a reversed support
    with pytest.raises(ValueError, match="k1 \\+ k2 > 0"):
        PumpedPair(GaussianPacket(-1.0, 0.1), pump_scale=2.0)
    assert PumpedPair(GaussianPacket(0.0, 0.1), pump_scale=2.0).support[1] > 0


def test_table_interpolation_is_linear():
    t = TablePacket(np.array([0.0, 1.0]), np.array([0.0 + 0.0j, 2.0 + 4.0j]))
    assert t(0.5) == pytest.approx(1.0 + 2.0j)


def test_pumped_pair_vanishes_off_positive_quadrant():
    f = PumpedPair(PUMP, pump_scale=1.0)
    assert f(0.0, 1.3) == 0.0
    assert f(1.3, 0.0) == 0.0
    assert f(-0.2, 0.5) == 0.0
    assert f(0.5, -4.0) == 0.0


def test_pumped_pair_hand_value():
    # at (1, 1): (i/1) * pump(2) * sqrt(6*1*1*2) = i * sqrt(12)
    f = PumpedPair(PUMP, pump_scale=1.0)
    val = f(1.0, 1.0)
    assert val == pytest.approx(1j * np.sqrt(12.0), abs=1e-12)
    assert abs(val - 3.4641016151377544j) < 1e-12


@pytest.mark.parametrize("family", [
    PumpedPair(PUMP, pump_scale=2.0),
    SymmetrizedProduct(GaussianPacket(0.6, 0.3), GaussianPacket(1.1, 0.2, amplitude=0.7 + 0.2j)),
    CorrelatedGaussian(pump_center=2.0, pump_width=0.15, relative_width=0.5),
])
def test_exchange_symmetry_is_exact(family):
    rng = np.random.default_rng(42)
    k1 = rng.uniform(-1.0, 3.0, 1000)
    k2 = rng.uniform(-1.0, 3.0, 1000)
    a = family(k1, k2)
    b = family(k2, k1)
    # bitwise identical, not merely close
    assert np.array_equal(a, b)


def test_smoothness_finite_differences_converge_quadratically():
    g = GaussianPacket(0.5, 0.25)
    k = 0.62
    exact = g(k) * (-(k - 0.5) / 0.25**2)
    errs = []
    for h in (1e-3, 5e-4):
        fd = (g(k + h) - g(k - h)) / (2 * h)
        errs.append(abs(fd - exact))
    assert 3.5 < errs[0] / errs[1] < 4.5

    f = CorrelatedGaussian(2.0, 0.2, 0.6)
    k1, k2 = 1.1, 0.95
    errs = []
    for h in (1e-3, 5e-4):
        fd = (f(k1 + h, k2) - 2 * f(k1, k2) + f(k1 - h, k2)) / h**2
        fd2 = (f(k1 + h / 2, k2) - 2 * f(k1, k2) + f(k1 - h / 2, k2)) / (h / 2) ** 2
        errs.append(abs(fd - fd2))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_packet_normalization():
    g = normalized_packet(GaussianPacket(0.75, 0.1, amplitude=3.3))
    assert packet_norm(g) == pytest.approx(1.0, abs=1e-10)
    # closed form: |amp|^2 sigma sqrt(pi) = 1
    assert abs(g.amplitude) == pytest.approx((0.1 * np.sqrt(np.pi)) ** -0.5, rel=1e-9)


_TABLE_K = np.linspace(0.35, 1.15, 21)
_FINE_K = np.linspace(0.35, 1.15, 201)
_WIDE_K = np.linspace(0.0, 1.5, 201)


@pytest.mark.parametrize("table", [
    TablePacket(_TABLE_K, np.exp(-0.5 * ((_TABLE_K - 0.75) / 0.1) ** 2)),
    TablePacket(_FINE_K, np.exp(-0.5 * ((_FINE_K - 0.75) / 0.1) ** 2)),
    TablePacket(_TABLE_K, np.random.default_rng(3).uniform(0.0, 1.0, 21)),
    TablePacket(_WIDE_K, np.exp(-0.5 * ((_WIDE_K - 0.75) / 0.2) ** 2 + 5j * _WIDE_K)),
], ids=["gauss21", "gauss201", "random21", "complex201"])
def test_table_norm_matches_interpolant_closed_form(table):
    # |g|^2 is quadratic between nodes: int = sum h (|a|^2 + |b|^2 + Re(a b*)) / 3
    a, b = table.values[:-1], table.values[1:]
    exact = np.sum(np.diff(table.k) * (np.abs(a) ** 2 + np.abs(b) ** 2
                                       + (a * b.conj()).real) / 3.0)
    assert abs(packet_norm(table) ** 2 - exact) <= 1e-13 * exact


def test_table_packet_normalization():
    # a 57-row Gaussian table with a complex phase stays a table on its grid
    k = np.linspace(0.47, 1.03, 57)
    table = TablePacket(k, (1 + 0.3j) * np.exp(-0.5 * ((k - 0.75) / 0.1) ** 2))
    g = normalized_packet(table)
    assert isinstance(g, TablePacket) and np.array_equal(g.k, k)
    assert abs(packet_norm(g) - 1.0) <= 1e-12


def test_normalize_biphoton_idempotent_and_projective():
    dom = (0.1, 4.0)
    f = PumpedPair(PUMP, pump_scale=1.0)
    f1 = normalize_biphoton(f, dom)
    f2 = normalize_biphoton(f1, dom)
    assert abs(f2.scale - f1.scale) <= 1e-10 * abs(f1.scale)
    # projective invariance: scaling by 3 first changes nothing
    from dataclasses import replace
    f3 = normalize_biphoton(replace(f, scale=3.0 * f.scale), dom)
    assert abs(f3.scale - f1.scale) <= 1e-8 * abs(f1.scale)


def test_normalized_pumped_pair_against_riemann():
    # independent check of the norm on [0.1, 4]^2 by a midpoint Riemann sum
    dom = (0.1, 4.0)
    f = normalize_biphoton(PumpedPair(PUMP, pump_scale=1.0), dom)
    n = 2000
    k = np.linspace(dom[0], dom[1], n, endpoint=False)
    h = (dom[1] - dom[0]) / n
    k = k + 0.5 * h
    total = 0.0
    for i0 in range(0, n, 200):
        vals = f(k[i0:i0 + 200][:, None], k[None, :])
        total += float(np.sum(np.abs(vals) ** 2))
    total *= h * h
    assert total == pytest.approx(1.0, abs=1e-4)


def test_normalize_zero_norm_rejected():
    f = SymmetrizedProduct(GaussianPacket(0.5, 0.1, amplitude=0.0),
                           GaussianPacket(0.5, 0.1))
    with pytest.raises(ValueError):
        normalize_biphoton(f, (0.0, 1.0))


def test_load_table_packet_roundtrip(tmp_path):
    path = tmp_path / "packet.csv"
    path.write_text("k,re,im\n0.0,1.0,0.5\n0.5,2.0,-0.25\n1.0,0.0,0.0\n")
    t = load_table_packet(path)
    assert t.support == (0.0, 1.0)
    assert t(0.5) == 2.0 - 0.25j
    assert t(0.25) == pytest.approx(1.5 + 0.125j)


def test_load_table_packet_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,re,im\n0.0,1.0,0.0\noops,not,numbers\n")
    with pytest.raises(ValueError, match=f"^{path}:3: malformed"):
        load_table_packet(path)


@pytest.mark.parametrize("text, line", [
    ("k,re,im\n0.0,1.0,0.0\n\n0.5,nan,0.0\n1.0,0.0,0.0\n", 4),
    ("k,re,im\n0.0,1.0,0.0\n", 1),
    ("0.0,1.0,0.0\n0.0,1.0,0.0\n", 1),
], ids=["nan", "one_sample", "grid_not_increasing"])
def test_load_table_packet_errors_name_file_and_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{path}:{line}: "):
        load_table_packet(path)


@pytest.mark.parametrize("call, message", [
    (lambda: TablePacket(np.array([0.0, 1.0]), np.array([1.0 + 0j])),
     "table packet needs matching 1-D grids with >= 2 samples"),
    (lambda: TablePacket(np.array([0.5]), np.array([1.0 + 0j])),
     "table packet needs matching 1-D grids with >= 2 samples"),
    (lambda: TablePacket(np.arange(3.0), np.zeros(3)).effective_width(),
     "cannot define a width for an identically zero table"),
    (lambda: CorrelatedGaussian(2.0, 0.0, 0.1), "pump_width and relative_width must be positive"),
    (lambda: CorrelatedGaussian(2.0, 0.1, -0.1),
     "pump_width and relative_width must be positive"),
    (lambda: PumpedPair(PUMP, 0.0), "pump_scale must be positive"),
], ids=["table_shapes", "table_one_sample", "table_zero_width", "pump_width",
        "relative_width", "pump_scale"])
def test_bad_input_fails_at_once(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
