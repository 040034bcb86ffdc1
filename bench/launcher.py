"""Spawn commands on request and report their wall time and rusage.

Reads one JSON request per stdin line, ``{"argv", "env", "stdout",
"stderr"}``, runs it to completion and answers with one JSON line
``{"wall_s", "cpu_s", "maxrss_kb", "exit_code"}``.  This process imports
nothing heavy and stays small: Linux carries a process's peak RSS across
exec, so a command spawned from it reports its own peak rather than the
benchmark's.
"""

import json
import os
import signal
import sys
import time

TIMEOUT_S = 150


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def _alarm(signum, frame):
    raise TimeoutError(f"command ran longer than {TIMEOUT_S} s")


def run(req: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    signal.alarm(TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # timeout or termination: reap the child, then re-raise
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.alarm(0)
    return {"wall_s": time.perf_counter() - start, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "exit_code": os.waitstatus_to_exitcode(status)}


def main() -> None:
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
