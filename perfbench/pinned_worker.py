"""Child interpreter that runs sessions on the pinned build of ``repro``.

    python3 perfbench/pinned_worker.py <workload> <scale>

It reads one session seed per line on standard input and answers each
with one JSON line: the session's wall and CPU time, the honest
messages found and the must-hold failures.  It imports ``repro`` from
``pinned/repro.zip``, never from ``src/``.  ``run.py`` starts it and
alternates its sessions with its own on the same seeds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ZIP = HERE / "pinned" / "repro.zip"


def main(argv: list[str]) -> int:
    name, scale = argv
    sys.path[:0] = [str(ZIP), str(HERE)]
    import repro

    if not repro.__file__.startswith(str(ZIP)):
        print(f"error: repro imported from {repro.__file__}", file=sys.stderr)
        return 2
    import workloads

    setup = workloads.build(name, scale)
    for line in sys.stdin:
        result = workloads.run_session(setup, int(line))
        answer = {
            "wall_s": result.wall_s,
            "cpu_s": result.cpu_s,
            "honest_found": result.honest_found,
            "failures": result.failures,
        }
        print(json.dumps(answer), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
