"""Momentum-space amplitude families for one- and two-photon states.

Single-photon packets g(k) and exchange-symmetric pair amplitudes
f(k1, k2).  All objects are immutable, callable on scalars or arrays
(with broadcasting), and return complex values; each is integrated over
its ``support`` (lo, hi), on each axis for a pair.  A pair family is a
constant ``phase`` times a symmetric kernel, real unless it holds a table
packet, whose per-node factors ``rows`` computes once per node set.

Exchange symmetry of every pair family is exact by construction: the
arithmetic is arranged so that swapping the arguments produces bitwise
identical floating-point results.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .dispersion import DispersionRelation
from .quadrature import _graded_edge, _sorted_unique, osc_integrate_1d_many, osc_tensor_scan

__all__ = [
    "GaussianPacket",
    "TablePacket",
    "SymmetrizedProduct",
    "CorrelatedGaussian",
    "PumpedPair",
    "load_table_packet",
    "packet_norm",
    "normalized_packet",
    "biphoton_norm",
    "normalize_biphoton",
]

# Envelopes count as supported where they exceed this fraction of the
# peak; for a Gaussian that is center +- CUT_SIGMAS * width.
SUPPORT_CUT = 1e-12
CUT_SIGMAS = float(np.sqrt(-2.0 * np.log(SUPPORT_CUT)))


def _check_support(support: tuple[float, float], what: str) -> None:
    """Reject a support whose ends are not finite and increasing, as when a
    width is not positive or the floats near the center cannot resolve it."""
    lo, hi = map(float, support)
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"the {what} support ({lo!r}, {hi!r}) must have finite increasing ends")


# ----------------------------------------------------------------------
# single-photon packets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPacket:
    """g(k) = amplitude * exp(-(k - center)^2 / (2 width^2))."""

    center: float
    width: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):   # a width that is not positive reverses the support
        _check_support(self.support, "packet")

    @property
    def support(self) -> tuple[float, float]:
        half = CUT_SIGMAS * self.width
        return (self.center - half, self.center + half)

    def __call__(self, k):
        out = self.amplitude * self.profile(k)
        return out if np.shape(out) else complex(out)

    def profile(self, k):   # the real g / amplitude
        u = (np.asarray(k, dtype=float) - self.center) / self.width
        return np.exp(-0.5 * u * u)

    def effective_width(self) -> float:
        return self.width


@dataclass(frozen=True)
class TablePacket:
    """Sampled packet with linear interpolation; zero outside the grid."""

    k: np.ndarray
    values: np.ndarray
    amplitude = 1.0   # not a field: the values carry it, so the profile is the table

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if k.ndim != 1 or k.size < 2 or v.shape != k.shape:
            raise ValueError("table packet needs matching 1-D grids with >= 2 samples")
        if not (np.isfinite(k).all() and np.isfinite(v).all()):
            raise ValueError("table packet grid and values must be finite")
        if not (np.diff(k) > 0).all():
            raise ValueError("table grid must be strictly increasing")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "values", v)

    @property
    def support(self) -> tuple[float, float]:
        return (float(self.k[0]), float(self.k[-1]))

    def __call__(self, kq):
        kq = np.asarray(kq, dtype=float)
        re = np.interp(kq, self.k, self.values.real, left=0.0, right=0.0)
        im = np.interp(kq, self.k, self.values.imag, left=0.0, right=0.0)
        out = re + 1j * im
        return out if out.shape else complex(out)

    profile = __call__

    def effective_width(self) -> float:
        """RMS width of |g|^2 on the table grid."""
        w = np.abs(self.values) ** 2
        total = np.trapezoid(w, self.k)
        if total <= 0:
            raise ValueError("cannot define a width for an identically zero table")
        mean = np.trapezoid(self.k * w, self.k) / total
        var = np.trapezoid((self.k - mean) ** 2 * w, self.k) / total
        return float(np.sqrt(var))


def load_table_packet(path) -> TablePacket:
    """Read a (k, re, im) CSV file; a non-numeric first row is a header.
    Every error message starts with `path:line`."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not "".join(row).strip():
                continue
            try:
                rows.append((float(row[0]), float(row[1]), float(row[2])))
            except (ValueError, IndexError):
                if rows:
                    raise ValueError(f"{path}:{reader.line_num}: malformed table row {row!r}")
                continue  # header line
            if not np.isfinite(rows[-1]).all():
                raise ValueError(f"{path}:{reader.line_num}: non-finite table row {row!r}")
    if len(rows) < 2:
        raise ValueError(f"{path}:1: table file holds fewer than 2 samples")
    data = np.asarray(rows, dtype=float)
    try:
        return TablePacket(data[:, 0], data[:, 1] + 1j * data[:, 2])
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from None


# ----------------------------------------------------------------------
# two-photon pair amplitudes
# ----------------------------------------------------------------------

class _PairKernel:
    """f = phase * kernel: ``_constant()`` is the complex factor, ``_nodes(k, w)`` the
    kernel's per-node factors times weights w, ``_pair(k1, k2, n1, n2)`` the kernel."""

    @property
    def phase(self) -> complex:
        c = complex(self._constant())
        return c / abs(c) if c else 1.0 + 0.0j

    def __call__(self, k1, k2):
        k1, k2 = np.asarray(k1, dtype=float), np.asarray(k2, dtype=float)
        out = self.phase * self._pair(k1, k2, self._nodes(k1, 1.0), self._nodes(k2, 1.0))
        return out if np.shape(out) else complex(out)

    def rows(self, k: np.ndarray, w: np.ndarray):
        """rows(idx) = w_i w_j kernel(k_i, k_j) for i in idx, on the nodes k."""
        n = self._nodes(k, w)
        return lambda idx: self._pair(k[idx][:, None], k[None, :], [x[idx][:, None] for x in n],
                                      [x[None, :] for x in n])


@dataclass(frozen=True)
class SymmetrizedProduct(_PairKernel):
    """f(k1,k2) = scale * (g1(k1) g2(k2) + g1(k2) g2(k1)) / 2."""

    packet1: GaussianPacket | TablePacket
    packet2: GaussianPacket | TablePacket
    scale: complex = 1.0 + 0.0j

    def _constant(self):
        return self.scale * self.packet1.amplitude * self.packet2.amplitude

    def _nodes(self, k, w):
        return w * self.packet1.profile(k), w * self.packet2.profile(k)

    def _pair(self, k1, k2, n1, n2):
        return abs(self._constant()) * (0.5 * (n1[0] * n2[1] + n2[0] * n1[1]))

    @property
    def support(self) -> tuple[float, float]:
        (lo1, hi1), (lo2, hi2) = self.packet1.support, self.packet2.support
        return (min(lo1, lo2), max(hi1, hi2))

    def effective_width(self) -> float:
        return min(self.packet1.effective_width(), self.packet2.effective_width())


@dataclass(frozen=True)
class CorrelatedGaussian(_PairKernel):
    """Gaussian in the pump sum k1 + k2 times Gaussian in the difference.

    f = scale * exp(-(k1+k2-pump_center)^2 / (2 pump_width^2))
              * exp(-(k1-k2)^2 / (2 relative_width^2))
    """

    pump_center: float
    pump_width: float
    relative_width: float
    scale: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not (self.pump_width > 0 and self.relative_width > 0):
            raise ValueError("pump_width and relative_width must be positive")
        _check_support(self.support, "pair")

    def _constant(self):
        return self.scale

    def _nodes(self, k, w):
        return (w,)

    def _pair(self, k1, k2, n1, n2):
        us = (k1 + k2 - self.pump_center) / self.pump_width
        ud = (k1 - k2) / self.relative_width
        return abs(self.scale) * (n1[0] * n2[0]) * np.exp(-0.5 * us * us - 0.5 * ud * ud)

    @property
    def support(self) -> tuple[float, float]:
        half = CUT_SIGMAS * (self.pump_width + self.relative_width)
        return (0.5 * (self.pump_center - half), 0.5 * (self.pump_center + half))

    def effective_width(self) -> float:
        wp2, wr2 = self.pump_width**2, self.relative_width**2
        return float(np.sqrt(wp2 * wr2 / (wp2 + wr2)))


@dataclass(frozen=True)
class PumpedPair(_PairKernel):
    """Co-propagating pair amplitude with a Gaussian pump spectrum.

    f(k1,k2) = scale * (i / pump_scale^2) * pump(k1+k2)
             * sqrt(6 k1 k2 (k1+k2))      on k1 > 0, k2 > 0,
    and zero elsewhere: the square root is real only on the open positive
    quadrant, so support is restricted there by convention (the per-node
    factor sqrt(k) is zero for k <= 0).
    """

    pump: GaussianPacket
    pump_scale: float
    scale: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not (self.pump_scale > 0):
            raise ValueError("pump_scale must be positive")
        if not self.pump.support[1] > 0:
            raise ValueError(f"the pump support {self.pump.support} must reach k1 + k2 > 0, "
                             f"where the pair amplitude lives")

    def _constant(self):
        return self.scale * 1j * self.pump.amplitude / self.pump_scale**2

    def _nodes(self, k, w):
        return (w * np.sqrt(np.maximum(k, 0.0)),)

    def _pair(self, k1, k2, n1, n2):
        s = k1 + k2
        return (abs(self._constant()) * np.sqrt(6.0) * (n1[0] * n2[0])
                * (self.pump.profile(s) * np.sqrt(np.maximum(s, 0.0))))

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.pump.support[1])

    def effective_width(self) -> float:
        return self.pump.effective_width()


BiphotonSpec = SymmetrizedProduct | CorrelatedGaussian | PumpedPair


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------

_UNIT_MASS = DispersionRelation(1.0)  # phase factors drop out at z = t = 0


def packet_norm(packet) -> float:
    """sqrt of int |g(k)|^2 dk over the packet support, at rel_tol 1e-11."""
    vals, _, _ = osc_integrate_1d_many(
        lambda k: np.abs(packet(k)) ** 2, _UNIT_MASS, [0.0], 0.0,
        _quadrature_domain(packet), rel_tol=1e-11, max_width=_feature_width(packet))
    return float(np.sqrt(vals[0].real))


def normalized_packet(packet):
    """Rescale a packet to unit L2 norm on its support."""
    n = packet_norm(packet)
    if not n > 0:
        raise ValueError("cannot normalize an identically zero packet")
    if isinstance(packet, GaussianPacket):
        return replace(packet, amplitude=packet.amplitude / n)
    return TablePacket(packet.k, packet.values / n)


def biphoton_norm(spec: BiphotonSpec, k_domain: tuple[float, float]) -> float:
    """sqrt of the truncated L2 norm  int int |f|^2 dk1 dk2  over k_domain^2, at rel_tol 1e-10."""
    def env(k, wk):
        rows = spec.rows(k, np.ones_like(k))
        return lambda idx: np.abs(rows(idx)) ** 2

    vals, _, _ = osc_tensor_scan(env, _UNIT_MASS, _quadrature_domain(spec, k_domain),
                                 0.0, 0.0, [0.0], [0.0], rel_tol=1e-10,
                                 max_width=_feature_width(spec))
    return float(np.sqrt(vals[0, 0].real))


def normalize_biphoton(spec: BiphotonSpec, k_domain: tuple[float, float]) -> BiphotonSpec:
    """Rescale so that the truncated L2 norm over k_domain^2 equals one."""
    n = biphoton_norm(spec, k_domain)
    if not (np.isfinite(n) and n > 0):
        raise ValueError("cannot normalize a pair amplitude with zero norm on the domain")
    return replace(spec, scale=spec.scale / n)


def _feature_width(obj) -> float | None:
    """Panel width cap for the quadrature: half the envelope's finest scale."""
    try:
        return 0.5 * obj.effective_width()
    except (AttributeError, ValueError):
        return None


def _quadrature_domain(obj, domain=None, rel_tol=None):
    """Quadrature breakpoints: ``domain`` plus the interior table nodes of ``obj``.

    ``domain`` defaults to ``obj.support``, a pair's being that of each axis.
    A linearly interpolated table has a kink at every node, so panels
    start there; families without table packets keep the (lo, hi) pair.
    Given ``rel_tol``, a pumped pair's amplitude, which carries sqrt(k) at
    its lower edge k = 0, gets breakpoints graded toward that edge from
    half its effective width (``_graded_edge``); its |f|^2 is smooth there.
    """
    domain = obj.support if domain is None else domain
    if rel_tol is not None and isinstance(obj, PumpedPair):
        return _graded_edge(domain, _feature_width(obj), rel_tol)
    parts = (obj.packet1, obj.packet2) if isinstance(obj, SymmetrizedProduct) else (obj,)
    tables = [p.k for p in parts if isinstance(p, TablePacket)]
    if not tables:
        return domain
    lo, hi = domain
    nodes = _sorted_unique(np.concatenate(tables))
    return (lo, *nodes[(nodes > lo) & (nodes < hi)].tolist(), hi)
