"""Write the pinned build of ``repro`` that the timed runs compare against.

    python3 perfbench/pin.py

packs every ``src/repro/**/*.py`` into ``perfbench/pinned/repro.zip``
(sorted, fixed timestamps, so the same sources give the same bytes) and
prints its sha256.  ``run.py`` imports the zip in a child interpreter
and refuses a zip whose digest is not ``run.PINNED_SHA256``.  Re-pinning
moves the yardstick of every relative metric, so it is a change to the
benchmark, not to the program (see NOTES.md, "Relative timing").
"""

from __future__ import annotations

import hashlib
import zipfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ZIP = HERE / "pinned" / "repro.zip"


def pin() -> str:
    ZIP.parent.mkdir(exist_ok=True)
    with zipfile.ZipFile(ZIP, "w", zipfile.ZIP_DEFLATED, compresslevel=9) as out:
        for path in sorted((SRC / "repro").rglob("*.py")):
            info = zipfile.ZipInfo(path.relative_to(SRC).as_posix(), (1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            out.writestr(info, path.read_bytes())
    return hashlib.sha256(ZIP.read_bytes()).hexdigest()


if __name__ == "__main__":
    print(pin())
