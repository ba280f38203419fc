"""Record the SHA-256 of trace.csv for every config the orbit-trace workload
can generate, into bench/digests.json.

The table is the determinism contract in checkable form: trace.csv must stay
byte-identical across commits. Re-record it only at a commit whose trace
output is trusted, never to make a failing check pass.

    python3 bench/record_digests.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from proxcycle import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    out = ROOT / ".bench_out" / "record"
    digests = {}
    try:
        for system_id, fixed, grid, p in workloads.TRACE_SLOTS:
            names = sorted(grid)
            for values in itertools.product(*(grid[name] for name in names)):
                params = dict(fixed, **dict(zip(names, values)))
                config = workloads.trace_config(system_id, params, p, seed=0)
                cli.run_experiment(cli.parse_config(config), out)
                digests[workloads.trace_key(config)] = hashlib.sha256(
                    (out / "trace.csv").read_bytes()
                ).hexdigest()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    (Path(__file__).with_name("digests.json")).write_text(text)
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
