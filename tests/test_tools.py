import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sample_hashes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("sample_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, probability: float, error: float) -> None:
    out = root / "out_biphoton"
    out.mkdir(parents=True)
    (out / "biphoton_scan.csv").write_text(
        "z1,probability,error,method\n"
        f"20,{probability!r},{error!r},adaptive_panel\n"
        "22,3.0e-05,2e-12,adaptive_panel\n", encoding="utf-8")


@pytest.mark.parametrize("moved, new_error, status", [
    (5e-13, 1e-12, 0),    # within both errors
    (3e-12, 1e-12, 1),    # outside both
    (3e-12, 4e-12, 0),    # within the larger of the two
])
def test_compare_fails_when_probability_moves_beyond_its_errors(tmp_path, capsys, moved,
                                                                new_error, status):
    tool = load_tool()
    write_tree(tmp_path / "old", 9.5e-05, 1e-12)
    write_tree(tmp_path / "new", 9.5e-05 + moved, new_error)
    assert tool.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == status
    assert ("OUTSIDE THE ERRORS" in capsys.readouterr().out) == bool(status)


def test_compare_fails_on_a_csv_in_one_tree_only(tmp_path, capsys):
    tool = load_tool()
    write_tree(tmp_path / "old", 9.5e-05, 1e-12)
    write_tree(tmp_path / "new", 9.5e-05, 1e-12)
    (tmp_path / "old" / "out_biphoton" / "extra.csv").write_text("t\n1\n", encoding="utf-8")
    assert tool.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert f"only in {tmp_path / 'old'}" in capsys.readouterr().out


def test_compare_reports_byte_identical_files(tmp_path, capsys):
    tool = load_tool()
    for root, probability in (("old", 9.5e-05), ("new", 9.5e-05 + 5e-13)):
        write_tree(tmp_path / root, probability, 1e-12)
        out = tmp_path / root / "out_biphoton"
        (out / "profile.csv").write_text("v1,valid\n0.5,true\n", encoding="utf-8")
        (out / "config_effective.ini").write_text(f"[scan]\nt = {root}\n", encoding="utf-8")
    # a differing echo fails: it reproduces the run and has no error bar
    assert tool.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "out_biphoton/biphoton_scan.csv  differs" in lines
    assert "out_biphoton/config_effective.ini  differs" in lines
    assert "out_biphoton/profile.csv  byte-identical" in lines
    assert lines[-1] == "1 of 3 files byte-identical"


def test_compare_counts_plots_and_summaries_apart(tmp_path, capsys):
    tool = load_tool()
    for root, verdict in (("old", "pass"), ("new", "fail")):
        write_tree(tmp_path / root, 9.5e-05, 1e-12)
        out = tmp_path / root / "out_bounds"
        out.mkdir()
        (out / "lightcone_scan.svg").write_text(f"<svg>verdict: {verdict}</svg>\n",
                                               encoding="utf-8")
        (out / "bounds_summary.txt").write_text("grid: 1 rays\n", encoding="utf-8")
    # a plot that differs is listed and counted, but does not fail the comparison
    assert tool.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "out_bounds/lightcone_scan.svg  differs" in lines
    assert "out_bounds/bounds_summary.txt  byte-identical" in lines
    assert lines[-2:] == ["1 of 2 plots and summaries byte-identical",
                          "1 of 1 files byte-identical"]
    # a plot that one run did not write does
    (tmp_path / "new" / "out_bounds" / "lightcone_scan.svg").unlink()
    assert tool.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert f"only in {tmp_path / 'old'}" in capsys.readouterr().out


def readme_sample_runs() -> list[tuple[str, ...]]:
    """The README's block of sample commands as ``RUNS`` entries: the
    subcommand, the config's file name and any further arguments."""
    blocks = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8").split("```")[1::2]
    [block] = [b for b in blocks if b.startswith("sh\nwgcorr ")]
    runs = []
    for line in block.splitlines()[1:]:
        command, subcommand, flag, config, *rest = line.split("#", 1)[0].split()
        assert (command, flag) == ("wgcorr", "--config") and config.startswith("configs/")
        runs.append((subcommand, config.removeprefix("configs/"), *rest))
    return runs


def test_readme_sample_runs_are_the_hashed_runs_and_cover_every_config():
    runs = load_tool().RUNS
    assert readme_sample_runs() == list(runs)
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert {run[1] for run in runs} == {p.name for p in configs.glob("*.ini")}
