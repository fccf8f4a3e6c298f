"""Run one command and print its wall time, peak RSS and CPU time as JSON.

Usage: python3 -I perfbench/launch.py -- COMMAND [ARGS...]

The benchmark measures every child through this small interpreter instead
of spawning it directly: on Linux, exec keeps the spawning process's RSS
high-water mark, so ``os.wait4`` on a child of the benchmark itself (which
holds the reference corpus) would report the benchmark's memory, not the
child's. The command's stdout is discarded; its stderr is inherited.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if argv[:1] != ["--"] or len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    proc = subprocess.Popen(argv[1:], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit_code": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
