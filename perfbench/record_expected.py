"""Record the exit code of every request of every workload for the default seed.

    python3 perfbench/record_expected.py

Writes ``expected_seed1.json`` next to this file; run.py then holds later
runs of that seed to these codes.  Requests that fail their warm-up checks
are not recorded and the script exits 1.  To record again after the pools
change, delete the file first: the old codes are otherwise applied too.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    rp = run.load_program()
    table: dict[str, dict[str, int]] = {}
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for workload in workloads.WORKLOADS:
            jobs = run.build_jobs(rp, workload, run.DEFAULT_SEED, work)
            with run.quiet():
                run.warm_up(rp, jobs, work)
            bad = [f"{j.name}: {j.problem}" for j in jobs if j.problem is not None]
            if bad:
                print("\n".join(bad), file=sys.stderr)
                return 1
            table[workload] = {j.name: j.warm_code for j in jobs}
            print(f"{workload}: {len(jobs)} requests, verdicts {run.verdict_mix(jobs)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.EXPECTED_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
