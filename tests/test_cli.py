import configparser
import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wgcorr import cli, quadrature
from wgcorr.cli import Config, ConfigError, main


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


MODES_CFG = """
[mode]
source = rectangle
a = 3.141592653589793
b = 3.141592653589793
count = 4
solver = analytic

[output]
directory = {out}
"""

SINGLE_CFG = """
[mode]
source = mass
mass = 1.0

[packet]
family = gaussian
center = 0.75
width = 0.1
normalize = true

[scan]
z_min = -5.0
z_max = 15.0
z_count = 41
t_values = 0, 10
v = 0.6
t_min = 50
t_max = 200
t_count = 5

[tolerances]
quadrature_rel = 1e-9

[output]
directory = {out}
"""

BIPHOTON_CFG = """
[mode]
source = mass
mass = 1.0

[biphoton]
family = separable
packet1_center = 0.6
packet1_width = 0.3
packet2_center = 1.0
packet2_width = 0.25
normalize = true

[scan]
t1 = 4.0
t2 = 6.0
z1_min = 0.0
z1_max = 6.0
z1_count = 7
z2_min = 0.0
z2_max = 6.0
z2_count = 5
profile_v_min = 0.3
profile_v_max = 0.9
profile_v_count = 13

[tolerances]
biphoton_rel = 1e-7

[output]
directory = {out}
"""

BOUNDS_CFG = """
[mode]
source = mass
mass = 1.0

[packet]
family = gaussian
center = 0.75
width = 0.1

[biphoton]
family = pumped_pair
pump_center = 2.0
pump_width = 0.1
pump_scale = 2.0
normalize = true

[scan]
t_pairs = 25:25, 50:50
v1_min = 0.6
v1_max = 0.8
v1_count = 4
v2_min = 0.6
v2_max = 0.8
v2_count = 4
lightcone_t = 30.0
lightcone_z_min = 36.0
lightcone_z_max = 60.0
lightcone_z_count = 13
lightcone_orders = 0, 6

[tolerances]
quadrature_rel = 1e-9
biphoton_rel = 1e-5

[output]
directory = {out}
"""


def write_cfg(tmp_path, template, name="cfg.ini"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(template.format(out=out))
    return path, out


def test_modes_square_eigenvalue(tmp_path):
    cfg, out = write_cfg(tmp_path, MODES_CFG)
    assert run_cli("modes", "--config", str(cfg)) == 0
    header, rows = read_csv(out / "modes.csv")
    assert header[0] == "index"
    m2 = float(rows[0][header.index("m_squared")])
    assert m2 == pytest.approx(2.0, abs=1e-12)
    assert (out / "modes.svg").exists()
    assert (out / "config_effective.ini").exists()


def test_modes_fd_close_to_exact(tmp_path):
    cfg_text = MODES_CFG.replace("solver = analytic",
                                 "solver = fd\nspacing = 0.049087385212340526")
    cfg, out = write_cfg(tmp_path, cfg_text)
    assert run_cli("modes", "--config", str(cfg)) == 0
    header, rows = read_csv(out / "modes.csv")
    m2 = float(rows[0][header.index("m_squared")])
    assert abs(m2 - 2.0) / 2.0 < 0.01


def test_single_zero_packet_all_zero(tmp_path):
    cfg_text = SINGLE_CFG.replace("normalize = true",
                                  "normalize = false\namplitude_re = 0.0")
    cfg, out = write_cfg(tmp_path, cfg_text)
    assert run_cli("single", "--config", str(cfg)) == 0
    header, rows = read_csv(out / "single_scan.csv")
    pcol = header.index("probability")
    assert all(float(r[pcol]) == 0.0 for r in rows)


def test_single_outputs_and_asymptotics(tmp_path):
    cfg, out = write_cfg(tmp_path, SINGLE_CFG)
    assert run_cli("single", "--config", str(cfg)) == 0
    header, rows = read_csv(out / "single_scan.csv")
    are, aim, pcol = (header.index(c) for c in ("amp_re", "amp_im", "probability"))
    for r in rows:
        amp = complex(float(r[are]), float(r[aim]))
        assert float(r[pcol]) == pytest.approx(abs(amp) ** 2, rel=1e-12, abs=1e-300)
    header, rows = read_csv(out / "asymptotic_comparison.csv")
    assert len(rows) == 5
    assert (out / "asymptotic_comparison.svg").exists()


def test_byte_identical_reruns(tmp_path):
    cfg1, out1 = write_cfg(tmp_path, SINGLE_CFG)
    run_cli("single", "--config", str(cfg1))
    out2 = tmp_path / "out2"
    run_cli("single", "--config", str(cfg1), "--out", str(out2))
    for name in ("single_scan.csv", "asymptotic_comparison.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_echo_reproduces_outputs(tmp_path):
    cfg, out = write_cfg(tmp_path, SINGLE_CFG)
    run_cli("single", "--config", str(cfg))
    out2 = tmp_path / "echo_run"
    run_cli("single", "--config", str(out / "config_effective.ini"), "--out", str(out2))
    for name in ("single_scan.csv", "asymptotic_comparison.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_invalid_config_exit_code_and_anchor(tmp_path, capsys):
    bad = SINGLE_CFG.replace("width = 0.1", "width = narrow")
    cfg, _ = write_cfg(tmp_path, bad)
    assert run_cli("single", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # the offending key is reported with its file line
    line = next(i for i, ln in enumerate(cfg.read_text().splitlines(), start=1)
                if ln.startswith("width"))
    assert f"{cfg}:{line}" in err


@pytest.mark.parametrize("line, bad", [("width = 0.1", "width = nan"),
                                       ("t_values = 0, 10", "t_values = 0, inf")])
def test_non_finite_config_number_rejected(tmp_path, capsys, line, bad):
    cfg, _ = write_cfg(tmp_path, SINGLE_CFG.replace(line, bad))
    assert run_cli("single", "--config", str(cfg)) == 2
    lineno = cfg.read_text().splitlines().index(bad) + 1
    assert f"{cfg}:{lineno}" in capsys.readouterr().err


def test_non_finite_config_pair_rejected(tmp_path):
    path = tmp_path / "pairs.ini"
    path.write_text("[scan]\nt_pairs = 50:50, 800:-inf\n")
    with pytest.raises(ConfigError, match=f"{path}:2"):
        Config(path).get_pairs("scan", "t_pairs")


def test_missing_key_reported(tmp_path, capsys):
    cfg_text = SINGLE_CFG.replace("z_min = -5.0\n", "")
    cfg, _ = write_cfg(tmp_path, cfg_text)
    assert run_cli("single", "--config", str(cfg)) == 2
    assert "z_min" in capsys.readouterr().err


def test_conflicting_mass_sources_rejected(tmp_path, capsys):
    # a key of another mass source is never read, so it is an unknown key
    for old, new, key in [("mass = 1.0", "mass = 1.0\nradius = 2.0", "radius"),
                          ("source = mass", "source = rectangle\na = 1.0\nb = 2.0", "mass")]:
        cfg_text = SINGLE_CFG.replace(old, new, 1)
        cfg, _ = write_cfg(tmp_path, cfg_text)
        at = 1 + next(i for i, ln in enumerate(cfg_text.splitlines())
                      if ln.startswith(f"{key} ="))
        assert run_cli("single", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}:{at}: unknown key '{key}' in [mode]\n")


def test_modes_from_raster_file(tmp_path):
    n = 31
    raster = tmp_path / "square.txt"
    raster.write_text(f"spacing {1/32}\n" + "\n".join(["1" * n] * n) + "\n")
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[mode]\nsource = raster\nfile = {raster}\ncount = 1\n"
                   f"\n[output]\ndirectory = {out}\n")
    assert run_cli("modes", "--config", str(cfg)) == 0
    header, rows = read_csv(out / "modes.csv")
    m2 = float(rows[0][header.index("m_squared")])
    assert m2 == pytest.approx(2 * np.pi**2, rel=0.01)


@pytest.mark.parametrize("text, line", [
    ("spacing 0.05x\n" + "1" * 20 + "\n", 1),                # bad header
    ("spacing 0.05\n" + "1" * 20 + "\n" + "1" * 19 + "\n", 3),  # ragged row
    ("spacing inf\n" + "1" * 20 + "\n", 1),                  # 4/h^2 is 0
])
def test_bad_raster_file_is_a_config_error(tmp_path, capsys, text, line):
    raster = tmp_path / "section.txt"
    raster.write_text(text)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[mode]\nsource = raster\nfile = {raster}\ncount = 1\n"
                   f"\n[output]\ndirectory = {tmp_path / 'out'}\n")
    assert run_cli("modes", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {raster}:{line}: ")
    assert "Traceback" not in err


def test_missing_raster_file_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[mode]\nsource = raster\nfile = {tmp_path / 'absent.txt'}\n"
                   f"count = 1\n\n[output]\ndirectory = {tmp_path / 'out'}\n")
    assert run_cli("modes", "--config", str(cfg)) == 2
    assert f"{cfg}:3: cannot read raster file" in capsys.readouterr().err


MODES_FD_CFG = """
[mode]
source = rectangle
a = 1.0
b = 1.3
spacing = 0.05
count = 4
solver = fd

[output]
directory = {out}
"""

RASTER_CFG = """
[mode]
source = raster
file = {raster}
count = 1
solver = fd

[output]
directory = {out}
"""


@pytest.mark.parametrize("command, template, line, bad", [
    ("modes", "modes_fd", "spacing = 0.05", "spacing = 0"),
    ("modes", "modes_fd", "count = 4", "count = 400"),  # smaller colour class: 237 nodes
    ("modes", "modes_fd", "spacing = 0.05", "spacing = 0.2"),  # 4 x 6 interior nodes
    ("modes", "modes_fd", "a = 1.0", "a = 0"),
    ("modes", "modes_fd", "a = 1.0", "a = -1"),
    ("modes", "raster", "solver = fd", "solver = analytic"),
    ("bounds", "bounds", "v1_count = 4", "v1_count = 0"),
    ("bounds", "bounds", "v1_max = 0.8", "v1_max = 1.2"),  # faster than light
    ("bounds", "bounds", "t_pairs = 25:25, 50:50", "t_pairs = 25:25, 0:50"),
    ("bounds", "bounds", "biphoton_rel = 1e-5", "biphoton_rel = 0"),
    ("bounds", "bounds", "pump_width = 0.1", "pump_width = 0"),
    ("bounds", "bounds", "width = 0.1", "width = -0.1"),  # [packet]
    ("bounds", "bounds", "lightcone_z_min = 36.0", "lightcone_z_min = 10.0"),  # inside the cone
    ("bounds", "bounds", "lightcone_orders = 0, 6", "lightcone_orders = 2.5, 4"),
    ("bounds", "bounds", "lightcone_orders = 0, 6", "lightcone_orders ="),
    ("bounds", "bounds", "lightcone_orders = 0, 6", "lightcone_orders = -3"),
    ("single", "single", "t_min = 50", "t_min = 0"),
    ("single", "single", "t_min = 50", "t_min = -5"),
    ("single", "single", "t_count = 5", "t_count = 0"),
    ("single", "single", "v = 0.6", "v = 1.0"),
])
def test_bad_config_value_exits_2_before_quadrature(tmp_path, capsys, monkeypatch,
                                                     command, template, line, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran before the configuration was checked")

    monkeypatch.setattr(quadrature, "oscillation_breakpoints", refuse)
    raster = tmp_path / "square.txt"
    raster.write_text("spacing 0.05\n" + "\n".join(["1" * 20] * 20) + "\n")
    template = {"modes_fd": MODES_FD_CFG, "raster": RASTER_CFG, "bounds": BOUNDS_CFG,
                "single": SINGLE_CFG}[template]
    lines = template.format(out=tmp_path / "out", raster=raster).splitlines()
    lineno = lines.index(line) + 1
    lines[lineno - 1] = bad
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("\n".join(lines) + "\n")
    assert run_cli(command, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:{lineno}: ")
    assert "Traceback" not in err


def test_gaussian_correlated_biphoton_and_its_echo(tmp_path, capsys):
    text = (CONFIGS / "biphoton_pumped.ini").read_text().replace(
        "family = pumped_pair\npump_center = 2.0\npump_width = 0.1\npump_scale = 2.0\n",
        "family = gaussian_correlated\npump_center = 2.0\npump_width = 0.15\n"
        "relative_width = 0.5\n")
    assert "relative_width" in text
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    out, echo = tmp_path / "out", tmp_path / "echo"
    assert run_cli("biphoton", "--config", str(cfg), "--out", str(out)) == 0
    assert run_cli("biphoton", "--config", str(out / "config_effective.ini"),
                   "--out", str(echo)) == 0
    for name in ("biphoton_scan.csv", "profile.csv", "config_effective.ini"):
        assert (out / name).read_bytes() == (echo / name).read_bytes()
    # a negative relative width is a config error at its line
    cfg.write_text(text.replace("relative_width = 0.5", "relative_width = -0.5"))
    at = 1 + text.splitlines().index("relative_width = 0.5")
    capsys.readouterr()
    assert run_cli("biphoton", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}:{at}: expected a positive value, got -0.5\n")


def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    # with no refinement level allowed the scan cannot reach 1e-12
    monkeypatch.setattr(quadrature, "SCAN1D_MAX_LEVELS", 0)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text((CONFIGS / "single_ray.ini").read_text()
                   .replace("quadrature_rel = 1e-9", "quadrature_rel = 1e-12"))
    assert run_cli("single", "--config", str(cfg), "--out", str(tmp_path / "out")) == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure in single: quadrature stalled at z = 100 ")


def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # a unit square with count = 100000 enumerates its p q <= count candidates,
    # then needs about 1.5 TiB of mode samples; the test raises a MemoryError
    # where the sample grid is built instead of attempting the allocation
    message = ("Unable to allocate 1.48 TiB for an array with shape (100000, 2036329) "
               "and data type float64")

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(np, "meshgrid", out_of_memory)
    cfg, out = write_cfg(tmp_path, MODES_CFG.replace("count = 4", "count = 100000")
                         .replace("3.141592653589793", "1.0"))
    assert run_cli("modes", "--config", str(cfg)) == 3
    assert capsys.readouterr().err == f"out of memory in modes: {message}\n"


def test_single_table_packet_end_to_end(tmp_path):
    k = np.linspace(0.47, 1.03, 57)
    g = (1 + 0.3j) * np.exp(-0.5 * ((k - 0.75) / 0.1) ** 2)
    table = tmp_path / "packet.csv"
    table.write_text("k,re,im\n" + "".join(f"{a:.17g},{b.real:.17g},{b.imag:.17g}\n"
                                            for a, b in zip(k, g)))
    cfg_text = SINGLE_CFG.replace("family = gaussian\ncenter = 0.75\nwidth = 0.1\n",
                                  f"family = table\nfile = {table}\n")
    assert "normalize = true" in cfg_text and "family = table" in cfg_text
    cfg, out = write_cfg(tmp_path, cfg_text)
    assert run_cli("single", "--config", str(cfg)) == 0
    header, rows = read_csv(out / "single_scan.csv")
    p = np.array([float(r[header.index("probability")]) for r in rows])
    assert len(rows) == 41 * 2 and np.isfinite(p).all() and p.max() > 0


def test_percent_is_a_literal_in_config_values(tmp_path, capsys):
    # no interpolation: "5%" is a bad number at its line, and a file name
    # with "%" is read and echoed as written
    cfg, out = write_cfg(tmp_path, SINGLE_CFG.replace("t_values = 0, 10", "t_values = 5%"))
    at = 1 + SINGLE_CFG.splitlines().index("t_values = 0, 10")
    assert run_cli("single", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}:{at}: expected a comma-separated list of finite numbers, "
        "got '5%'\n")
    k = np.linspace(0.47, 1.03, 57)
    table = tmp_path / "sec%1.txt"
    table.write_text("".join(f"{a:.17g},{np.exp(-50 * (a - 0.75) ** 2):.17g},0\n" for a in k))
    text = SINGLE_CFG.replace("family = gaussian\ncenter = 0.75\nwidth = 0.1\n",
                              f"family = table\nfile = {table}\n")
    cfg, out = write_cfg(tmp_path, text.replace("z_count = 41", "z_count = 3"))
    assert run_cli("single", "--config", str(cfg)) == 0
    echo = configparser.ConfigParser(interpolation=None)
    echo.read(out / "config_effective.ini")
    assert echo["packet"]["file"] == str(table)


def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys):
    # a directory under a file: at the [output] directory line, or naming --out
    blocker = tmp_path / "m.ini"
    blocker.write_text("")
    text = MODES_CFG.replace("directory = {out}", f"directory = {blocker / 'out'}")
    cfg, _ = write_cfg(tmp_path, text)
    at = 1 + text.splitlines().index(f"directory = {blocker / 'out'}")
    assert run_cli("modes", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}:{at}: cannot create output directory "
        f"{str(blocker / 'out')!r}: Not a directory\n")
    assert run_cli("modes", "--config", str(cfg), "--out", str(blocker / "x")) == 2
    assert capsys.readouterr().err == (
        f"config error: --out: cannot create output directory "
        f"{str(blocker / 'x')!r}: Not a directory\n")


@pytest.mark.parametrize("source, keys, bad", [
    ("rectangle", "a = 1e200\nb = 1.0", "a = 1e200"),
    ("rectangle", "a = 1.0\nb = 1e-160", "b = 1e-160"),
    ("disk", "radius = 1e308", "radius = 1e308"),
], ids=["side_huge", "side_tiny", "radius_huge"])
def test_extent_out_of_float_range_exits_2_at_its_line(tmp_path, capsys, source, keys, bad):
    # (pi/L)^2 ((j01/L)^2 for a disk) would underflow to 0 or overflow
    text = f"[mode]\nsource = {source}\n{keys}\ncount = 4\n\n[output]\ndirectory = {{out}}\n"
    cfg, _ = write_cfg(tmp_path, text)
    at = 1 + text.splitlines().index(bad)
    what = "disk radius" if source == "disk" else "rectangle sides"
    assert run_cli("modes", "--config", str(cfg)) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {cfg}:{at}: {what} must be finite and positive, as must (")


def test_missing_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "absent.ini"
    assert run_cli("modes", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: configuration file not found\n"


@pytest.mark.parametrize("kind", ["directory", "latin1"])
def test_config_that_cannot_be_read_exits_2(tmp_path, capsys, kind):
    cfg = tmp_path / "cfg.ini"
    if kind == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(MODES_CFG.replace("rectangle", "r\xe9ctangle").encode("latin-1"))
    assert run_cli("modes", "--config", str(cfg)) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {cfg}: cannot read configuration file: ")


def test_unparsable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("count = 4\n" + MODES_CFG)
    assert run_cli("modes", "--config", str(cfg)) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {cfg}: File contains no section headers.")


def test_defaulted_key_error_is_anchored_at_its_section(tmp_path, capsys):
    # `normalize` defaults to true: with no line of its own the error names
    # [packet] normalize
    table = tmp_path / "packet.csv"
    table.write_text("k,re,im\n0.5,0,0\n0.75,0,0\n1.0,0,0\n")
    gaussian = "family = gaussian\ncenter = 0.75\nwidth = 0.1\nnormalize = true\n"
    cfg_text = SINGLE_CFG.replace(gaussian, f"family = table\nfile = {table}\n")
    assert "normalize" not in cfg_text and "family = table" in cfg_text
    cfg, _ = write_cfg(tmp_path, cfg_text)
    assert run_cli("single", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == (f"config error: {cfg} [packet] normalize: "
                                       "cannot normalize an identically zero packet\n")


def test_biphoton_outputs(tmp_path):
    cfg, out = write_cfg(tmp_path, BIPHOTON_CFG)
    assert run_cli("biphoton", "--config", str(cfg)) == 0
    header, rows = read_csv(out / "biphoton_scan.csv")
    assert len(rows) == 7 * 5
    are, aim, pcol = (header.index(c) for c in ("amp_re", "amp_im", "probability"))
    for r in rows[:5]:
        amp = complex(float(r[are]), float(r[aim]))
        assert float(r[pcol]) == pytest.approx(abs(amp) ** 2, rel=1e-12, abs=1e-300)
    pheader, prows = read_csv(out / "profile.csv")
    assert len(prows) == 13 * 13
    assert (out / "profile.svg").exists()


def test_bounds_echo_reproduces_outputs(tmp_path):
    cfg, out = write_cfg(tmp_path, BOUNDS_CFG)
    run_cli("bounds", "--config", str(cfg))
    out2 = tmp_path / "echo_run"
    run_cli("bounds", "--config", str(out / "config_effective.ini"), "--out", str(out2))
    for name in ("bound_fits.csv", "lightcone_scan.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()
    assert not list(out2.glob("t_offset_profile.*"))


def test_bounds_outputs(tmp_path):
    cfg, out = write_cfg(tmp_path, BOUNDS_CFG)
    assert run_cli("bounds", "--config", str(cfg)) == 0
    header, rows = read_csv(out / "bound_fits.csv")
    kinds = [r[0] for r in rows]
    assert "two_photon_universal" in kinds
    assert "outside_lightcone" in kinds
    uni = rows[kinds.index("two_photon_universal")]
    assert float(uni[header.index("max_violation")]) <= 0.0
    summary = (out / "bounds_summary.txt").read_text()
    assert "holds on grid" in summary
    assert not list(out.glob("t_offset_profile.*"))   # t0 is fixed, not profiled
    assert (out / "lightcone_scan.csv").exists()


def test_validate_battery(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path, "[output]\ndirectory = {out}\n")
    assert run_cli("validate", "--config", str(cfg)) == 0
    printed = capsys.readouterr().out
    assert printed.count("[PASS]") >= 8
    assert "[FAIL]" not in printed
    header, rows = read_csv(out / "validation.csv")
    assert all(r[header.index("passed")] == "true" for r in rows)


SCIPY_PROBE = """
import json, sys

DEFERRED = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg", "scipy.special",
            "scipy.integrate", "scipy.stats", "scipy.ndimage", "numpy.ma")

def deferred_loaded():
    return [m for m in DEFERRED if m in sys.modules]

import wgcorr
loaded = [deferred_loaded()]
from wgcorr import cli
loaded.append(deferred_loaded())
for argv in sys.argv[1:]:
    assert cli.main(argv.split()) == 0, argv
    loaded.append(deferred_loaded())
print(json.dumps(loaded))
"""


def test_cli_imports_scipy_solvers_only_to_solve(tmp_path):
    # scipy.sparse costs about 0.2 s of every start-up (mostly scipy's
    # array-API layer), scipy.sparse.linalg (with scipy.linalg) and
    # scipy.special about 0.2 s more, scipy.integrate 0.1-0.2 s more of a
    # validate run; only the FD solver and closed-form disk spectra need
    # them, and they import them themselves; scipy.stats (about 0.5 s) and
    # scipy.ndimage (about 60 ms) are needed by no run.  numpy.ma, which
    # np.unique imports on first call (about 10 ms), is needed by no
    # bounds or validate run either
    cfg = configparser.ConfigParser()
    cfg.read(CONFIGS / "bounds_pumped.ini")
    cfg["scan"].update(t_pairs="50:50", v1_count="4", v2_count="4")
    with open(tmp_path / "bounds.ini", "w") as fh:
        cfg.write(fh)
    validate_cfg, _ = write_cfg(tmp_path, "[output]\ndirectory = {out}\n")
    runs = [f"bounds --config {tmp_path / 'bounds.ini'} --out {tmp_path / 'bounds'}",
            f"validate --config {validate_cfg} --out {tmp_path / 'validate'}",
            f"modes --config {CONFIGS / 'modes_disk_fd.ini'} --out {tmp_path / 'modes'}"]
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *runs], capture_output=True,
                         text=True, check=True).stdout
    on_wgcorr, on_import, after_bounds, after_validate, after_modes = \
        json.loads(out.splitlines()[-1])
    assert on_wgcorr == on_import == after_bounds == after_validate == []
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(after_modes)
    _, rows = read_csv(tmp_path / "modes" / "modes.csv")
    assert len(rows) == 6


# ----------------------------------------------------------------------
# every bad value of the sample configurations is a config error at its line
# ----------------------------------------------------------------------

SAMPLE_COMMANDS = {"modes_square": "modes", "modes_disk_fd": "modes", "single_ray": "single",
                   "biphoton_pumped": "biphoton", "bounds_pumped": "bounds"}
FUZZ_VALUES = ("", "x", "nan", "-1", "0", "1e400")


class Reached(Exception):
    """The run got past its configuration checks to a solve or a quadrature."""


def _reach(*args, **kwargs):
    raise Reached


@pytest.fixture
def checks_only(monkeypatch):
    monkeypatch.setattr(quadrature, "oscillation_breakpoints", _reach)
    monkeypatch.setattr(cli, "fd_spectrum", _reach)
    monkeypatch.setattr(cli, "analytic_spectrum", _reach)


def _key_lines(lines):
    """(line number, key) of every key = value line but ``directory``."""
    out = []
    for no, ln in enumerate(lines, start=1):
        key, sep, _ = ln.partition("=")
        if sep and not ln.lstrip().startswith("#") and key.strip() != "directory":
            out.append((no, key.strip()))
    return out


def _config_error_at(capsys, command, cfg, out, anchors):
    """Whether ``command`` exits 2 with a config error anchored at one of ``anchors``
    (``path:line`` strings); a run that reaches a solve or a quadrature is None."""
    capsys.readouterr()
    try:
        status = main([command, "--config", str(cfg), "--out", str(out)])
    except Reached:
        return None
    except Exception:   # a traceback
        return False
    err = capsys.readouterr().err
    return status == 2 and any(err.startswith(f"config error: {a}: ") for a in anchors)


def test_every_bad_sample_value_is_anchored(tmp_path, capsys, checks_only):
    escapes, cases = [], 0
    cfg = tmp_path / "cfg.ini"
    for name, command in SAMPLE_COMMANDS.items():
        lines = (CONFIGS / f"{name}.ini").read_text().splitlines()
        for no, key in _key_lines(lines):
            for value in FUZZ_VALUES:
                bad = list(lines)
                bad[no - 1] = f"{key} = {value}"
                cfg.write_text("\n".join(bad) + "\n")
                cases += 1
                if _config_error_at(capsys, command, cfg, tmp_path / "out",
                                    [f"{cfg}:{no}"]) is False:
                    escapes.append(f"{name}: {key} = {value!r}")
    assert cases == 414
    assert escapes == []


def test_every_sample_section_rejects_a_key_nothing_reads(tmp_path, capsys, checks_only):
    # a misspelled key in any section a run reads is a config error at its
    # line, raised before the first solve or quadrature; [output] is not read
    # when --out is given
    cfg = tmp_path / "cfg.ini"
    cases = 0
    for name, command in SAMPLE_COMMANDS.items():
        lines = (CONFIGS / f"{name}.ini").read_text().splitlines()
        for no, ln in enumerate(lines, start=1):
            section = ln.strip()[1:-1]
            if not ln.startswith("[") or section == "output":
                continue
            cfg.write_text("\n".join([*lines[:no], "cuont = 4", *lines[no:]]) + "\n")
            cases += 1
            capsys.readouterr()
            status = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert (status, capsys.readouterr().err) == (
                2, f"config error: {cfg}:{no + 1}: unknown key 'cuont' in [{section}]\n")
    assert cases == 15


def test_unknown_key_is_reported_before_the_mode_solve(tmp_path, capsys, checks_only):
    # a mass from a mode spectrum is solved only once the whole file is read
    text = (CONFIGS / "single_ray.ini").read_text()
    for old, new in [("source = mass", "source = disk"), ("mass = 1.0", "radius = 1.0"),
                     ("width = 0.1", "width = 0.1\nwdith = 0.2")]:
        text = text.replace(old, new, 1)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    at = 1 + text.splitlines().index("wdith = 0.2")
    assert _config_error_at(capsys, "single", cfg, tmp_path / "out", [f"{cfg}:{at}"])


def test_validate_reads_no_mode_key(tmp_path, checks_only):
    # sections a subcommand never reads are not checked for unknown keys
    cfg = tmp_path / "cfg.ini"
    cfg.write_text((CONFIGS / "modes_square.ini").read_text()
                   .replace("count = 10", "cuont = 10"))
    with pytest.raises(Reached):
        main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_every_sample_section_typo_is_an_unknown_section(tmp_path, capsys, checks_only):
    # a section outside mode/packet/biphoton/scan/tolerances/output is a
    # config error at its header, before any solve or quadrature, whether
    # misspelled or capitalized (section names are case-sensitive)
    cfg = tmp_path / "cfg.ini"
    cases = 0
    for name, command in SAMPLE_COMMANDS.items():
        lines = (CONFIGS / f"{name}.ini").read_text().splitlines()
        for no, ln in enumerate(lines, start=1):
            if not ln.startswith("["):
                continue
            for typo in (ln[1:-2], ln[1:-1].capitalize()):
                cfg.write_text("\n".join([*lines[:no - 1], f"[{typo}]", *lines[no:]]) + "\n")
                cases += 1
                capsys.readouterr()
                status = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
                assert (status, capsys.readouterr().err) == (
                    2, f"config error: {cfg}:{no}: unknown section [{typo}]\n")
    assert cases == 40
    # configparser's [DEFAULT] would pass its keys to every section
    cfg.write_text("[DEFAULT]\ncount = 3\n\n" + (CONFIGS / "modes_square.ini").read_text())
    assert main(["modes", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:1: unknown section [DEFAULT]\n"


BAD_TABLES = {"malformed": "k,re,im\n0.5,1,0\n0.6,x,0\n0.7,1,0\n",
              "nan": "k,re,im\n0.5,1,0\n0.6,nan,0\n0.7,1,0\n"}


@pytest.mark.parametrize("config, old, new, anchor", [
    ("modes_disk_fd", "solver = fd", "solver = fdd", "solver"),
    ("biphoton_pumped", "pump_width = 0.1", "pump_width: -0.1", "pump_width"),
    ("biphoton_pumped", "pump_center = 2.0", "pump_center = -1", "pump_center"),
    ("biphoton_pumped", "normalize = true",
     "normalize = true\nnorm_k_min = 10\nnorm_k_max = 11", "normalize"),
    ("biphoton_pumped", "normalize = true",
     "normalize = true\nnorm_k_min = 2\nnorm_k_max = 1", "norm_k_max"),
    ("single_ray", "width = 0.1", "width = 0.1\namplitude_re = 0", "normalize"),
    ("single_ray", "family = gaussian", "family = table\nfile = {absent}", "file"),
    ("single_ray", "family = gaussian", "family = table\nfile = {malformed}", "{malformed}:3"),
    ("single_ray", "family = gaussian", "family = table\nfile = {nan}", "{nan}:3"),
    # both ends outside the cone, on opposite sides: the grid crosses it
    ("bounds_pumped", "lightcone_z_min = 60.0", "lightcone_z_min = -60", "lightcone_z_max"),
], ids=["solver_fdd", "colon_line", "pump_center_negative", "zero_pair_norm",
        "reversed_norm_range", "zero_packet", "missing_table", "malformed_table",
        "nan_table", "cone_ends_across"])
def test_bad_value_is_anchored(tmp_path, capsys, monkeypatch, config, old, new, anchor):
    monkeypatch.setattr(cli, "fd_spectrum", _reach)
    files = {"absent": tmp_path / "absent.csv"}
    for name, text in BAD_TABLES.items():
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text(text)
    text = (CONFIGS / f"{config}.ini").read_text()
    assert old in text
    text = text.replace(old, new.format(**files), 1)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    if anchor.startswith("{"):
        at = anchor.format(**files)
    else:
        at = f"{cfg}:{1 + next(i for i, ln in enumerate(text.splitlines()) if ln.startswith(anchor))}"
    assert _config_error_at(capsys, SAMPLE_COMMANDS[config], cfg, tmp_path / "out", [at])


@pytest.mark.parametrize("bad", ["spacing = 1e200", "spacing = 1e-200", "spacing = -0.05"])
def test_spacing_is_checked_when_it_is_read(tmp_path, capsys, checks_only, bad):
    # the error is at the spacing line, not the unknown key read after it:
    # the solver never sees the spacing
    text = MODES_FD_CFG.replace("spacing = 0.05", bad).replace("count = 4", "count = 4\ncuont = 4")
    cfg, out = write_cfg(tmp_path, text)
    at = 1 + text.splitlines().index(bad)
    assert run_cli("modes", "--config", str(cfg)) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {cfg}:{at}: lattice spacing must be finite and positive, "
        f"as must (2/L)^2, got L = ")


UNRESOLVED = "family = gaussian_correlated\npump_center = 1e18\npump_width = 0.1\n" \
             "relative_width = 0.1\n"


@pytest.mark.parametrize("command, template, edits, anchor", [
    ("single", SINGLE_CFG, {"center = 0.75": "center = 1e18",
                            "normalize = true": "normalize = false"}, "center = 1e18"),
    ("single", SINGLE_CFG, {"width = 0.1": "width = 1e-300"}, "center = 0.75"),
    ("biphoton", BIPHOTON_CFG, {"family = separable": UNRESOLVED.rstrip(),
                                "packet1_center = 0.6\npacket1_width = 0.3\n"
                                "packet2_center = 1.0\npacket2_width = 0.25\n": ""},
     "pump_center = 1e18"),
], ids=["packet_far_centre", "packet_subnormal_width", "pair_far_pump"])
def test_support_that_cannot_be_resolved_exits_2_at_the_centre(tmp_path, capsys, checks_only,
                                                               command, template, edits, anchor):
    # the support's ends round to one float; with normalize = true the error
    # was at the normalize line, with normalize = false a traceback
    text = template
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new, 1)
    cfg, out = write_cfg(tmp_path, text)
    at = 1 + text.splitlines().index(anchor)
    assert _config_error_at(capsys, command, cfg, out, [f"{cfg}:{at}"])


@pytest.mark.parametrize("family", [
    "family = separable\npacket1_center = 0.6\npacket1_width = 0.3\n"
    "packet2_center = 1e18\npacket2_width = 1e4\n",
    "family = pumped_pair\npump_center = 1e18\npump_width = 1e4\npump_scale = 2.0\n",
], ids=["separable", "pumped_pair"])
def test_support_too_wide_for_the_panel_budget_exits_3(tmp_path, capsys, family):
    # some 1e14 initial panels, more than numpy can allocate: the budget
    # refuses them before they are built
    text = BIPHOTON_CFG.replace("family = separable\npacket1_center = 0.6\npacket1_width = 0.3\n"
                                "packet2_center = 1.0\npacket2_width = 0.25\n", family)
    assert family in text
    cfg, _ = write_cfg(tmp_path, text)
    assert run_cli("biphoton", "--config", str(cfg)) == 3
    assert capsys.readouterr().err.startswith("numeric failure in biphoton: panel budget ")


@pytest.mark.parametrize("command, name", [
    ("single", "single_table"), ("modes", "modes_raster_fd"), ("modes", "modes_disk")])
def test_sample_runs_with_data_files_run_from_the_repository_root(tmp_path, monkeypatch,
                                                                  command, name):
    monkeypatch.chdir(CONFIGS.parent)
    assert run_cli(command, "--config", f"configs/{name}.ini", "--out", str(tmp_path)) == 0
    assert (tmp_path / ("single_scan.csv" if command == "single" else "modes.csv")).exists()
