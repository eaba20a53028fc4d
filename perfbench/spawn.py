"""Runs the program's processes one after another and reports each one's wall time and
resource usage. Reads a JSON list of ``{"argv": [...], "stdout": path}`` on standard
input and writes a JSON list of results on standard output.

It is a separate small interpreter because Linux carries the parent's resident-set
high-water mark into a child at exec: children started straight from run.py, which
holds numpy and scipy, would report run.py's peak RSS instead of their own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> int:
    results = []
    for job in json.load(sys.stdin):
        with open(job["stdout"], "wb") as out, open(job["stdout"] + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(job["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        results.append({"rc": proc.returncode, "wall_s": wall,
                        "cpu_s": usage.ru_utime + usage.ru_stime,
                        "peak_rss_mb": usage.ru_maxrss / 1024.0,
                        "minor_faults": usage.ru_minflt})
    json.dump(results, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
