"""Batch command line front end.

Subcommands read a sectioned key = value configuration file, run the
requested computation and write deterministic CSV tables (stable column
order, 17-significant-digit floats) plus static SVG line plots into the
output directory.  The defaults-resolved configuration is echoed to
``config_effective.ini`` so every run can be reproduced from its own
output directory byte for byte.

    wgcorr modes    --config cfg.ini [--out DIR]
    wgcorr single   --config cfg.ini ...
    wgcorr biphoton --config cfg.ini ...
    wgcorr bounds   --config cfg.ini ...
    wgcorr validate --config cfg.ini ...
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .bounds import (
    PROBABILITY_FLOOR,
    Ray,
    bound_fit_csv_rows,
    check_lightcone_decay,
    decay_orders,
    fit_universal_bound,
    summarize_bound_fits,
)
from .correlators import (
    CorrelationResult,
    SpacetimePoint,
    amplitude_biphoton,
    amplitude_single,
    asymptotic_single,
    biphoton_scan,
    entangled_spacetime_profile,
    kg_residual,
    momentum_norm,
    position_norm,
    probability_biphoton,
    probability_single,
    single_scan,
)
from .dispersion import DispersionRelation
from .modes import (
    Disk,
    ModeSolverError,
    Rectangle,
    _check_extent,
    analytic_spectrum,
    fd_spectrum,
    load_raster,
)
from .quadrature import QuadratureError
from .wavepackets import (
    CorrelatedGaussian,
    GaussianPacket,
    PumpedPair,
    SymmetrizedProduct,
    load_table_packet,
    normalize_biphoton,
    normalized_packet,
)


class ConfigError(Exception):
    pass


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(raw)
    return value


def _finite_pair(raw: str) -> tuple[float, float]:
    a, _, b = raw.partition(":")
    return _finite_float(a), _finite_float(b)


def _list_of(item):
    """The conversion of a non-empty list of comma-separated ``item`` tokens."""
    def conv(raw):
        values = [item(tok) for tok in raw.replace(";", ",").split(",") if tok.strip()]
        if not values:
            raise ValueError(raw)
        return values
    return conv


def _check(test, expected: str):
    """A ``check`` of ``Config``: ValueError naming ``expected`` unless ``test(value)``."""
    def check(value):
        if not test(value):
            raise ValueError(f"expected {expected}, got {value!r}")
    return check


_positive = _check(lambda v: (np.asarray(v) > 0).all(), "a positive value")
_subluminal = _check(lambda v: abs(v) < 1.0, "a detector velocity with |v| < 1")
_rel_tol = _check(lambda v: 0 < v < 1, "a relative tolerance in (0, 1)")


def _fmt(value) -> str:
    """CSV cell rendering; floats carry 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _rows(*columns):
    """CSV rows from columns that broadcast against each other, in C order."""
    return zip(*(c.ravel() for c in np.broadcast_arrays(*columns)))


class Config:
    """Typed, line-anchored access to an INI file, recording every lookup.

    The record of resolved values (explicit and defaulted) is what gets
    echoed next to the outputs.  Every read may take a ``check``: a value
    it rejects with ValueError is a config error at the key's line, as is
    a value that does not convert; a section outside ``SECTIONS`` (names
    are case-sensitive) is one at its header.
    """

    SECTIONS = ("mode", "packet", "biphoton", "scan", "tolerances", "output")

    def __init__(self, path):
        self.path = Path(path)
        if not self.path.exists():
            raise ConfigError(f"{path}: configuration file not found")
        self._raw_lines = self.path.read_text().splitlines()
        self._cp = configparser.ConfigParser(   # "[]" is no header: [DEFAULT] is unknown too
            inline_comment_prefixes=("#", ";"), default_section="", interpolation=None)
        try:
            self._cp.read_string("\n".join(self._raw_lines), source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        self.resolved: dict[tuple[str, str], str] = {}
        for section in self._cp.sections():
            if section not in self.SECTIONS:
                self._fail(section, None, f"unknown section [{section}]")

    def _line_of(self, section: str, key: str | None) -> int | None:
        current = None
        for i, ln in enumerate(self._raw_lines, start=1):
            s = ln.strip()
            header = self._cp.SECTCRE.match(s)   # as configparser reads a header
            if header:
                if key is None and header["header"] == section:
                    return i
                current = header["header"].strip().lower()
            elif (key is not None and current == section.lower()   # split at "=" or ":"
                  and s.replace(":", "=").partition("=")[0].strip().lower() == key.lower()):
                return i
        return None

    def _fail(self, section, key, message):
        line = self._line_of(section, key)
        anchor = f"{self.path}:{line}" if line else f"{self.path} [{section}] {key or ''}".rstrip()
        raise ConfigError(f"{anchor}: {message}")

    def anchored(self, section, key, fn, *args):
        """``fn(*args)``, a ValueError it raises being a config error at [section] key."""
        try:
            return fn(*args)
        except ValueError as exc:
            self._fail(section, key, str(exc))

    def has(self, section, key) -> bool:
        return self._cp.has_option(section, key)

    def _get(self, section, key, default, conv, kind, check=None):
        if self._cp.has_option(section, key):
            raw = self._cp.get(section, key).strip()
            try:
                value = conv(raw)
            except (KeyError, ValueError):
                self._fail(section, key, f"expected {kind}, got {raw!r}")
            if check is not None:
                self.anchored(section, key, check, value)
        elif default is None:
            raise ConfigError(f"{self.path}: missing required key [{section}] {key}")
        else:
            value = default
        self.resolved[(section, key)] = self._render(value)
        return value

    @staticmethod
    def _render(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(float(value))
        if isinstance(value, tuple):
            return ":".join(Config._render(v) for v in value)
        if isinstance(value, list):
            return ", ".join(Config._render(v) for v in value)
        return str(value)

    def get_str(self, section, key, default=None):
        return self._get(section, key, default, str, "a string")

    def get_choice(self, section, key, choices, default=None):
        return self._get(section, key, default, str, "a string",
                         _check(lambda v: v in choices, f"one of {'/'.join(choices)}"))

    def get_float(self, section, key, default=None, check=None):
        return self._get(section, key, default, _finite_float, "a finite number", check)

    def get_int(self, section, key, default=None, check=None):
        return self._get(section, key, default, int, "an integer", check)

    def get_bool(self, section, key, default=None):
        states = configparser.ConfigParser.BOOLEAN_STATES   # 1/0, yes/no, true/false, on/off
        return self._get(section, key, default, lambda raw: states[raw.lower()], "a boolean")

    def get_floats(self, section, key, default=None, check=None):
        return self._get(section, key, default, _list_of(_finite_float),
                         "a comma-separated list of finite numbers", check)

    def get_pairs(self, section, key, default=None, check=None):
        return self._get(section, key, default, _list_of(_finite_pair),
                         "a list of finite pairs like 50:50, 800:800", check)

    def get_grid(self, section, name, lo=None, hi=None, count=None, check=None):
        """``count`` (> 0) points spaced evenly over [``name``_min, ``name``_max],
        both ends passing ``check``."""
        return np.linspace(self.get_float(section, f"{name}_min", lo, check),
                           self.get_float(section, f"{name}_max", hi, check),
                           self.get_int(section, f"{name}_count", count, _positive))

    def reject_unknown(self):
        """Config error at the first key that no read asked for, in every section read."""
        read = {section for section, _ in self.resolved}
        for section, key in [(s, k) for s in self._cp.sections() if s in read
                             for k in self._cp.options(s) if (s, k) not in self.resolved]:
            self._fail(section, key, f"unknown key '{key}' in [{section}]")

    def echo(self, path):
        cp = configparser.ConfigParser(interpolation=None)   # "%" is a literal
        cp.read_dict({s: {k: v for (s2, k), v in self.resolved.items() if s2 == s}
                      for s, _ in self.resolved})
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)


# ----------------------------------------------------------------------
# model construction from config sections
# ----------------------------------------------------------------------

def _load(cfg: Config, section: str, loader, what: str):
    """``loader`` applied to [section] file, whose errors name a line of that file."""
    path = cfg.get_str(section, "file")
    try:
        return loader(path)
    except OSError as exc:
        cfg._fail(section, "file", f"cannot read {what} file: {exc}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_spectrum(cfg: Config, count: int, count_key: str = "count"):
    """The solve of the [mode] spectrum, to be called once the configuration is read."""
    source = cfg.get_choice("mode", "source", ("rectangle", "disk", "raster"))
    if source == "rectangle":
        cs = Rectangle(cfg.get_float("mode", "a", check=_check_extent),
                       cfg.get_float("mode", "b", check=_check_extent))
    elif source == "disk":
        cs = cfg.anchored("mode", "radius", Disk, cfg.get_float("mode", "radius"))
    else:
        cs = _load(cfg, "mode", load_raster, "raster")
    raster = source == "raster"
    solver = cfg.get_choice("mode", "solver", ("fd",) if raster else ("analytic", "fd"),
                            "fd" if raster else "analytic")
    spacing = (cfg.get_float("mode", "spacing")   # a raster's own spacing when None
               if solver == "fd" and (cfg.has("mode", "spacing") or not raster) else None)

    def solve():
        try:
            if solver == "analytic":
                return analytic_spectrum(cs, count)
            return fd_spectrum(cs, count, spacing)
        except ValueError as exc:  # the count or lattice does not suit the section
            key = (count_key if "count" in str(exc)
                   else "spacing" if cfg.has("mode", "spacing") else "file")
            cfg._fail("mode", key, str(exc))
    return solve


def resolve_mass(cfg: Config):
    """The call that gives the cutoff mass, to be made once the configuration is read."""
    if cfg.get_choice("mode", "source", ("mass", "rectangle", "disk", "raster")) == "mass":
        mass = cfg.get_float("mode", "mass", check=_positive)
        return lambda: mass
    index = cfg.get_int("mode", "index", 1, check=_positive)
    solve = resolve_spectrum(cfg, index, "index")
    return lambda: float(solve().cutoff_masses[index - 1])


def resolve_packet(cfg: Config):
    """The packet and whether to normalize it (which runs quadrature)."""
    if cfg.get_choice("packet", "family", ("gaussian", "table"), "gaussian") == "table":
        packet = _load(cfg, "packet", load_table_packet, "table")
    else:
        packet = GaussianPacket(
            center=cfg.get_float("packet", "center"),
            width=cfg.get_float("packet", "width", check=_positive),
            amplitude=complex(cfg.get_float("packet", "amplitude_re", 1.0),
                              cfg.get_float("packet", "amplitude_im", 0.0)))
    return packet, cfg.get_bool("packet", "normalize", True)


def resolve_biphoton(cfg: Config):
    """The pair amplitude and the domain to normalize it on (None: keep its scale)."""
    family = cfg.get_choice("biphoton", "family",
                            ("separable", "gaussian_correlated", "pumped_pair", "yls"))
    if family == "separable":
        f = SymmetrizedProduct(
            GaussianPacket(cfg.get_float("biphoton", "packet1_center"),
                           cfg.get_float("biphoton", "packet1_width", check=_positive)),
            GaussianPacket(cfg.get_float("biphoton", "packet2_center"),
                           cfg.get_float("biphoton", "packet2_width", check=_positive)))
    elif family == "gaussian_correlated":
        f = CorrelatedGaussian(
            pump_center=cfg.get_float("biphoton", "pump_center"),
            pump_width=cfg.get_float("biphoton", "pump_width", check=_positive),
            relative_width=cfg.get_float("biphoton", "relative_width", check=_positive))
    else:
        pump = GaussianPacket(cfg.get_float("biphoton", "pump_center"),
                              cfg.get_float("biphoton", "pump_width", check=_positive))
        scale = cfg.get_float("biphoton", "pump_scale", check=_positive)
        f = cfg.anchored("biphoton", "pump_center", PumpedPair, pump, scale)
    if not cfg.get_bool("biphoton", "normalize", True):
        return f, None
    lo, hi = f.support
    lo = cfg.get_float("biphoton", "norm_k_min", float(lo))
    return f, (lo, cfg.get_float("biphoton", "norm_k_max", float(hi),
                                 _check(lambda k: k > lo, f"a value above norm_k_min = {lo!r}")))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_modes(cfg: Config, out: Path) -> int:
    solve = resolve_spectrum(cfg, cfg.get_int("mode", "count", 10, check=_positive))
    cfg.reject_unknown()   # the whole configuration is read before the solve
    spectrum = solve()
    masses = spectrum.cutoff_masses
    index = np.arange(1, masses.size + 1)
    write_csv(out / "modes.csv",
              ("index", "label", "mode_class", "cutoff_mass", "m_squared", "cluster"),
              _rows(index, spectrum.labels, "TM", masses, masses**2,
                    spectrum.degenerate_clusters()))
    svgplot.line_plot(out / "modes.svg", index,
                      [("cutoff mass", masses)],
                      title="mode cutoff masses", xlabel="mode index",
                      ylabel="cutoff mass")
    return 0


def cmd_single(cfg: Config, out: Path) -> int:
    mass = resolve_mass(cfg)
    packet, normalize = resolve_packet(cfg)
    tol = cfg.get_float("tolerances", "quadrature_rel", 1e-9, _rel_tol)
    z = cfg.get_grid("scan", "z")
    t_values = np.array(cfg.get_floats("scan", "t_values", [0.0]))
    ray = cfg.has("scan", "v")
    if ray:
        v = cfg.get_float("scan", "v", check=_subluminal)
        ts = np.geomspace(cfg.get_float("scan", "t_min", 100.0, _positive),
                          cfg.get_float("scan", "t_max", 1000.0, _positive),
                          cfg.get_int("scan", "t_count", 25, _positive))
    cfg.reject_unknown()   # the whole configuration is read before a solve or quadrature
    d = DispersionRelation(mass())
    if normalize:
        packet = cfg.anchored("packet", "normalize", normalized_packet, packet)

    scans = [single_scan(packet, d, z, t, rel_tol=tol) for t in t_values]
    res = CorrelationResult(*map(np.array, zip(*scans)))   # one row per t, one column per z
    write_csv(out / "single_scan.csv",
              ("t", "z", "amp_re", "amp_im", "probability", "error", "method"),
              _rows(t_values[:, None], z, res.amplitudes.real, res.amplitudes.imag,
                    res.values, res.error_estimates, "adaptive_panel"))
    svgplot.line_plot(out / "single_scan.svg", z,
                      [(f"t={t:g}", p) for t, p in zip(t_values, res.values)],
                      title="detection probability density",
                      xlabel="z", ylabel="P(z, t)")

    if ray:
        pq, pe = np.array([probability_single(packet, d, SpacetimePoint(v * t, t), rel_tol=tol)
                           for t in ts]).T
        asym = asymptotic_single(packet, d, v, ts)
        pa = asym.probability
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(pa > 0, np.abs(pq - pa) / pa, np.inf)
        write_csv(out / "asymptotic_comparison.csv",
                  ("t", "v", "z", "p_quadrature", "p_error", "p_asymptotic",
                   "rel_diff", "guard_value", "guard_ok"),
                  _rows(ts, v, v * ts, pq, pe, pa, rel, asym.guard_value, asym.guard_ok))
        svgplot.line_plot(out / "asymptotic_comparison.svg", ts,
                          [("t * P quadrature", ts * pq), ("t * P asymptotic", ts * pa)],
                          title="ray probability against the large-time form",
                          xlabel="t", ylabel="t * P(v t, t)", logx=True)
    return 0


def cmd_biphoton(cfg: Config, out: Path) -> int:
    mass = resolve_mass(cfg)
    f, norm = resolve_biphoton(cfg)
    tol = cfg.get_float("tolerances", "biphoton_rel", 1e-6, _rel_tol)
    t1 = cfg.get_float("scan", "t1")
    t2 = cfg.get_float("scan", "t2")
    z1 = cfg.get_grid("scan", "z1")
    z2 = cfg.get_grid("scan", "z2")
    v = cfg.get_grid("scan", "profile_v", 0.1, 0.9, 41)
    cfg.reject_unknown()   # the whole configuration is read before a solve or quadrature
    d = DispersionRelation(mass())
    if norm:
        f = cfg.anchored("biphoton", "normalize", normalize_biphoton, f, norm)

    res = biphoton_scan(f, d, t1, t2, z1, z2, rel_tol=tol)
    write_csv(out / "biphoton_scan.csv",
              ("t1", "z1", "t2", "z2", "amp_re", "amp_im", "probability",
               "error", "method"),
              _rows(t1, z1[:, None], t2, z2, res.amplitudes.real, res.amplitudes.imag,
                    res.values, res.error_estimates, "adaptive_panel"))
    step = max(1, z2.size // 6)
    series = [(f"z2={z2[j]:g}", res.values[:, j]) for j in range(0, z2.size, step)]
    svgplot.line_plot(out / "biphoton_scan.svg", z1, series,
                      title="joint detection probability density",
                      xlabel="z1", ylabel="P(z1, t1, z2, t2)")

    prof = entangled_spacetime_profile(f, d, v, v)
    write_csv(out / "profile.csv", ("v1", "v2", "pair_weight", "valid"),
              _rows(v[:, None], v, prof.values, prof.valid))
    step = max(1, v.size // 6)
    series = [(f"v2={v[j]:.3g}", prof.values[:, j]) for j in range(0, v.size, step)]
    svgplot.line_plot(out / "profile.svg", v, series,
                      title="spacetime profile of the pair amplitude",
                      xlabel="v1", ylabel="|f(k10, k20)|^2")
    return 0


def cmd_bounds(cfg: Config, out: Path) -> int:
    mass = resolve_mass(cfg)
    f, norm = resolve_biphoton(cfg)
    tol = cfg.get_float("tolerances", "biphoton_rel", 1e-6, _rel_tol)
    t_pairs = cfg.get_pairs("scan", "t_pairs", [(50.0, 50.0), (200.0, 200.0)], _positive)
    v1 = cfg.get_grid("scan", "v1", check=_subluminal)   # the grid ends are its extremes
    v2 = cfg.get_grid("scan", "v2", check=_subluminal)
    lightcone = cfg.has("scan", "lightcone_t")
    if lightcone:
        t_ray = cfg.get_float("scan", "lightcone_t")
        zs = cfg.get_grid("scan", "lightcone_z", count=21, check=_check(
            lambda z: abs(z) >= abs(t_ray), f"a ray end outside the cone |z| >= {abs(t_ray)!r}"))
        ray = cfg.anchored("scan", "lightcone_z_max", Ray, t_ray, zs)  # ends across the cone
        orders = cfg.get_floats("scan", "lightcone_orders", [0.0, 2.0, 4.0, 6.0],
                                decay_orders)
        qtol = cfg.get_float("tolerances", "quadrature_rel", 1e-9, _rel_tol)
        packet, normalize = resolve_packet(cfg)
    cfg.reject_unknown()   # the whole configuration is read before a solve or quadrature
    d = DispersionRelation(mass())
    if lightcone and normalize:
        packet = cfg.anchored("packet", "normalize", normalized_packet, packet)
    if norm:
        f = cfg.anchored("biphoton", "normalize", normalize_biphoton, f, norm)

    fits = [fit_universal_bound(f, d, t_pairs, v1, v2, rel_tol=tol)]
    if lightcone:
        report = check_lightcone_decay(packet, d, ray, orders, rel_tol=qtol)
        fits.extend(report.fits)
        P = report.probabilities
        write_csv(out / "lightcone_scan.csv",
                  ("t", "z", "probability", "below_floor"),
                  _rows(t_ray, zs, P, P <= PROBABILITY_FLOOR))
        svgplot.line_plot(out / "lightcone_scan.svg", 1.0 + zs,
                          [("P", np.maximum(P, 1e-300))],
                          title=f"decay outside the light cone (verdict: {report.verdict})",
                          xlabel="1 + |z|", ylabel="P", logx=True, logy=True)

    header, rows = bound_fit_csv_rows(fits)
    write_csv(out / "bound_fits.csv", header, rows)
    (out / "bounds_summary.txt").write_text(summarize_bound_fits(fits))
    return 0


def cmd_validate(cfg: Config, out: Path) -> int:
    """Built-in property battery; one PASS/FAIL line per check."""
    cfg.reject_unknown()
    d = DispersionRelation(1.0)
    checks = []

    vs = np.linspace(-0.95, 0.95, 39)
    worst = np.abs(d.omega_d(d.stationary_point(vs)) - vs).max()
    checks.append(("dispersion_round_trip", worst, 1e-12))

    g = normalized_packet(GaussianPacket(0.75, 0.1))
    lo, hi = g.support
    k = np.linspace(lo, hi, 400_001)
    k = k[:-1] + (k[1] - k[0]) / 2
    env = g(k) / (2 * np.sqrt(2 * np.pi * d.omega(k)))
    for t in (0.0, 30.0):
        oracle = np.sum(env * np.exp(1j * (k * 1.5 - d.omega(k) * t))) * (k[1] - k[0])
        got = amplitude_single(g, d, SpacetimePoint(1.5, t), rel_tol=1e-10).value
        checks.append((f"quadrature_oracle_t{t:g}", abs(got - oracle) / abs(oracle), 1e-7))

    ms = analytic_spectrum(Rectangle(np.pi, np.pi), count=6)
    checks.append(("mode_orthonormality", ms.orthonormality_defect(), 1e-8))

    ge = GaussianPacket(0.0, 0.3)
    p1, _ = probability_single(ge, d, SpacetimePoint(2.0, 9.0), rel_tol=1e-10)
    p2, _ = probability_single(ge, d, SpacetimePoint(-2.0, 9.0), rel_tol=1e-10)
    checks.append(("probability_parity", abs(p1 - p2) / p1, 1e-9))

    f = SymmetrizedProduct(GaussianPacket(0.6, 0.3), GaussianPacket(1.0, 0.25))
    pa, _ = probability_biphoton(f, d, SpacetimePoint(2.0, 4.0),
                                 SpacetimePoint(1.0, 6.0), rel_tol=1e-8)
    pb, _ = probability_biphoton(f, d, SpacetimePoint(1.0, 6.0),
                                 SpacetimePoint(2.0, 4.0), rel_tol=1e-8)
    checks.append(("biphoton_exchange", abs(pa - pb) / pa, 1e-10))

    joint = amplitude_biphoton(f, d, SpacetimePoint(1.0, 3.0),
                               SpacetimePoint(-0.5, 5.0), rel_tol=1e-10).value
    parts = (amplitude_single(f.packet1, d, SpacetimePoint(1.0, 3.0), rel_tol=1e-11).value
             * amplitude_single(f.packet2, d, SpacetimePoint(-0.5, 5.0), rel_tol=1e-11).value
             + amplitude_single(f.packet1, d, SpacetimePoint(-0.5, 5.0), rel_tol=1e-11).value
             * amplitude_single(f.packet2, d, SpacetimePoint(1.0, 3.0), rel_tol=1e-11).value)
    checks.append(("separable_factorization", abs(joint - parts) / abs(parts), 1e-7))

    target = momentum_norm(g, d)
    drift = max(abs(position_norm(g, d, t) - target) / target for t in (0.0, 5.0))
    checks.append(("norm_conservation", drift, 1e-6))

    r1, a1 = kg_residual(g, d, 6.0, 9.0, h=2e-2)
    r2, _ = kg_residual(g, d, 6.0, 9.0, h=1e-2)
    ratio = abs(r1) / abs(r2)
    checks.append(("wave_operator_residual_ratio", abs(ratio - 4.0), 1.0))

    rows = [(name, metric, threshold, metric <= threshold) for name, metric, threshold in checks]
    for name, metric, threshold, ok in rows:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: metric={metric:.3e} "
              f"threshold={threshold:.1e}")
    write_csv(out / "validation.csv", ("check", "metric", "threshold", "passed"), rows)
    return 0 if all(ok for *_, ok in rows) else 1


_COMMANDS = {
    "modes": cmd_modes,
    "single": cmd_single,
    "biphoton": cmd_biphoton,
    "bounds": cmd_bounds,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wgcorr",
        description="waveguide photon correlation scans: modes, probabilities, bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    try:
        cfg = Config(args.config)
        out = Path(args.out or cfg.get_str("output", "directory", "out"))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            message = f"cannot create output directory {str(out)!r}: {exc.strerror}"
            if args.out:
                raise ConfigError(f"--out: {message}") from exc
            cfg._fail("output", "directory", message)
        status = _COMMANDS[args.command](cfg, out)
        cfg.echo(out / "config_effective.ini")
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ModeSolverError) as exc:
        print(f"numeric failure in {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
