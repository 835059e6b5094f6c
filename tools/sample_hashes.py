"""Run the README's eleven sample runs and print the sha256 of their outputs.

    python tools/sample_hashes.py DIR
    python tools/sample_hashes.py --compare OLD_DIR NEW_DIR

Each run starts in DIR, so the output directories named by the sample
configs (``out_modes``, ``out_modes_fd``, ``out_single``, ...) and
``out_validate`` land there.  The checkout's ``configs/`` is copied to
``DIR/configs`` first, and each run reads its config and data files from
that copy, as a run from the repository root does.  The program is
imported from the ``src/`` of the checkout that holds this script.  Afterwards the sha256 of every
CSV, ``config_effective.ini``, SVG plot and text summary under
``DIR/out_*/`` is printed in ``sha256sum`` format, sorted by path, so two
checkouts compare with ``diff``.  Exits 1 if any run ends with a non-zero
status.

``--compare`` reads two such trees and prints, for every file of them,
whether it is byte-identical in both.  The plots and summaries (SVG and
text) are counted on a ``k of m plots and summaries byte-identical``
line; a difference there does not fail the comparison, since values that
move within their errors move the plots too.  The CSVs and echoes are
counted on the last line, ``k of n files byte-identical``.  For a CSV
that differs it prints the largest |new - old| of every numeric column,
and for a probability column with a reported error (``error`` or
``p_error``) the largest |new - old| divided by the larger of the two
errors on that row; other columns are reported as equal or with the
number of rows that differ.
Exits 1 if any file is missing from one tree, if a ``config_effective.ini``
differs (the echo that reproduces a run has no error bar), if a CSV
changes its header or row count, or if a probability column moves by
more than that error.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = (
    ("modes", "modes_square.ini"),
    ("modes", "modes_disk_fd.ini"),
    ("single", "single_ray.ini"),
    ("biphoton", "biphoton_pumped.ini"),
    ("bounds", "bounds_pumped.ini"),
    ("validate", "modes_square.ini", "--out", "out_validate"),
    ("single", "single_refine.ini"),       # bisects the 1-D panels
    ("biphoton", "biphoton_dense.ini"),    # evaluates the 2-D envelope densely
    ("single", "single_table.ini"),        # a table packet read from a CSV file
    ("modes", "modes_raster_fd.ini"),      # a raster file through the FD solver
    ("modes", "modes_disk.ini"),           # the closed-form disk spectrum
)


DATA = ("out_*/*.csv", "out_*/config_effective.ini")   # compared value by value
VIEWS = ("out_*/*.svg", "out_*/*.txt")                  # plots and summaries

# error column -> the probability column it belongs to
ERROR_OF = {"error": "probability", "p_error": "p_quadrature"}


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def _outputs(root: Path, patterns) -> list[Path]:
    return [p for pattern in patterns for p in root.glob(pattern)]


def _same(old: Path, new: Path, name: Path) -> bool | None:
    """Whether ``name`` is byte-identical in both trees (printed); None if in one only."""
    if not ((old / name).exists() and (new / name).exists()):
        print(f"{name}\n  only in {old if (old / name).exists() else new}")
        return None
    same = (old / name).read_bytes() == (new / name).read_bytes()
    print(f"{name}  {'byte-identical' if same else 'differs'}")
    return same


def compare(old: Path, new: Path) -> int:
    names, views = ({p.relative_to(root) for root in (old, new)
                     for p in _outputs(root, patterns)}
                    for patterns in (DATA, VIEWS))
    broken = False
    identical = 0
    for name in sorted(names):
        same = _same(old, new, name)
        broken |= same is None
        identical += bool(same)
        if same is not False:
            continue
        if name.suffix != ".csv":
            print("  the echo must be byte-identical")
            broken = True
            continue
        (head_a, rows_a), (head_b, rows_b) = _read(old / name), _read(new / name)
        if head_a != head_b or len(rows_a) != len(rows_b):
            print(f"  header or row count differs: {len(rows_a)} vs {len(rows_b)} rows")
            broken = True
            continue
        cols = {h: ([r[i] for r in rows_a], [r[i] for r in rows_b])
                for i, h in enumerate(head_a)}
        for h, (a, b) in cols.items():
            err = next((e for e, col in ERROR_OF.items() if col == h and e in cols), None)
            errs = zip(*cols[err]) if err else [("", "")] * len(a)
            delta, ratio, n_text = [], [], 0
            for u, v, (eu, ev) in zip(a, b, errs):
                x, y = _number(u), _number(v)
                if x is None or y is None:
                    n_text += u != v
                    continue
                delta.append(abs(x - y))
                bound = max(_number(eu) or 0.0, _number(ev) or 0.0)
                ratio.append(delta[-1] / bound if bound > 0
                             else (0.0 if delta[-1] == 0 else math.inf))
            line = f"  {h:<20}"
            if delta:
                line += f" max|d| {max(delta):.3e}"
                if err:
                    line += f"   max|d|/{err} {max(ratio):.3e}"
                    if max(ratio) > 1.0:
                        line += "   OUTSIDE THE ERRORS"
                        broken = True
            if n_text or not delta:
                line += f" {n_text} text rows differ" if n_text else " equal"
            print(line)
    same_views = [_same(old, new, name) for name in sorted(views)]
    broken |= None in same_views
    print(f"{sum(map(bool, same_views))} of {len(views)} plots and summaries byte-identical")
    print(f"{identical} of {len(names)} files byte-identical")
    return 1 if broken else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print("usage: python tools/sample_hashes.py DIR\n"
              "       python tools/sample_hashes.py --compare OLD_DIR NEW_DIR",
              file=sys.stderr)
        return 2
    work = Path(argv[0]).resolve()
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    shutil.copytree(ROOT / "configs", work / "configs", dirs_exist_ok=True)
    failed = False
    for command, config, *extra in RUNS:
        status = subprocess.run(
            [sys.executable, "-m", "wgcorr.cli", command,
             "--config", str(Path("configs") / config), *extra],
            cwd=work, env=env, stdout=subprocess.DEVNULL).returncode
        if status:
            print(f"wgcorr {command} exited with status {status}", file=sys.stderr)
            failed = True
    for path in sorted(_outputs(work, DATA + VIEWS)):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(work)}")
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): stop quietly, and keep the
        # interpreter's final flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
