"""Run the README's five sample runs and print the sha256 of their outputs.

    python tools/sample_hashes.py DIR

Each run starts in DIR, so the output directories named by the sample
configs (``out_modes``, ``out_single``, ...) and ``out_validate`` land
there.  The program is imported from the ``src/`` of the checkout that
holds this script.  Afterwards the sha256 of every CSV and
``config_effective.ini`` under ``DIR/out_*/`` is printed in
``sha256sum`` format, sorted by path, so two checkouts compare with
``diff``.  Exits 1 if any run ends with a non-zero status.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = (
    ("modes", "modes_square.ini"),
    ("single", "single_ray.ini"),
    ("biphoton", "biphoton_pumped.ini"),
    ("bounds", "bounds_pumped.ini"),
    ("validate", "modes_square.ini", "--out", "out_validate"),
)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/sample_hashes.py DIR", file=sys.stderr)
        return 2
    work = Path(argv[0]).resolve()
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    failed = False
    for command, config, *extra in RUNS:
        status = subprocess.run(
            [sys.executable, "-m", "wgcorr.cli", command,
             "--config", str(ROOT / "configs" / config), *extra],
            cwd=work, env=env, stdout=subprocess.DEVNULL).returncode
        if status:
            print(f"wgcorr {command} exited with status {status}", file=sys.stderr)
            failed = True
    files = sorted(p for p in work.glob("out_*/*")
                   if p.suffix == ".csv" or p.name == "config_effective.ini")
    for path in files:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(work)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
