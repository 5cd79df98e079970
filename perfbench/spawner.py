"""Start commands for run.py from a small process of their own.

    python3 -S spawner.py

Linux counts the memory a child holds before exec, a copy of its parent's,
in the child's ru_maxrss.  Started from run.py, whose resident set grows with
what it checks, a small command would report run.py's peak RSS instead of
its own; started from this process, whose resident set stays below that of
any Python program, it reports its own.

Reads one JSON request per line on standard input:
    {"argv": [...], "cwd": ..., "env": {...}, "out": ..., "err": ..., "timeout": s}
and answers each on standard output, once the child has ended:
    {"wall": s, "maxrss_kb": n, "status": wait status}
The child's standard input is /dev/null.  Its address space is capped at
"address_space" bytes, its CPU time at "timeout" seconds, and a wall-clock
alarm kills it after "timeout" seconds; the limits are set on the child only.
Exits at the end of its input.
"""

import json
import os
import resource
import signal
import sys
import time


def run(req: dict) -> dict:
    timeout, cap = req["timeout"], req["address_space"]
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err, \
            open(os.devnull, "rb") as null:
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.chdir(req["cwd"])
                os.dup2(null.fileno(), 0)
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
                resource.setrlimit(resource.RLIMIT_CPU, (timeout, timeout + 1))
                signal.alarm(timeout)  # survives exec; SIGALRM's default action kills
                os.execve(req["argv"][0], req["argv"], req["env"])
            finally:
                os._exit(127)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return {"wall": wall, "maxrss_kb": usage.ru_maxrss, "status": status}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
