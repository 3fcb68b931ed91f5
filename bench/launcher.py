"""Run the harness's CLI commands and report each one's wall time and peak RSS.

The harness starts this small process once per workload run and sends
it one JSON request per line, {"argv", "cwd", "env", "stderr"}; it
answers each with one JSON line {"wall", "rss_kb", "code"}. It exits at
the end of its input.

A process's ru_maxrss includes the memory of the process it was forked
from, so a command forked from the harness (which holds the weblex
library, the generated inputs and the reference loop's data) would
report the harness's size whenever that is the larger. Forked from
here instead, a command reports its own peak.
"""

import json
import os
import sys
from time import perf_counter


def run(argv, cwd, env, stderr) -> dict:
    # posix_spawn rather than subprocess keeps this process small; it is
    # single-threaded, so changing its own directory is safe
    os.chdir(cwd)
    redirect = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=redirect)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - start
    return {"wall": wall, "rss_kb": usage.ru_maxrss, "code": os.waitstatus_to_exitcode(status)}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
