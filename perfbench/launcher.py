"""Start stage processes one at a time and report what each one cost.

Linux carries a process's RSS high-water mark across ``exec`` into the new
program's ``ru_maxrss``. A stage started straight from ``run.py``, which
holds the expected results, would report ``run.py``'s peak instead of its
own. This launcher is a separate small interpreter that imports nothing
beyond the standard library's core, so the stages it starts report their
own peak RSS.

Protocol: one JSON request per line on standard input,
``{"argvs": [[...], ...], "logs": [path, ...], "env": {...}}``;
the commands run one after the other (every one runs, even after a failure)
and one JSON reply per line goes to standard output with, per command,
``launch`` and ``exit`` (``time.monotonic``), ``code``, ``utime``,
``stime`` (seconds) and ``maxrss_kb`` from ``wait4``. The launcher exits at
end of input.
"""

import json
import os
import sys
import time


def run(argv, log, env):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    launch = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    end = time.monotonic()
    return {
        "launch": launch,
        "exit": end,
        "code": os.waitstatus_to_exitcode(status),
        "utime": usage.ru_utime,
        "stime": usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        runs = [
            run(argv, log, request["env"])
            for argv, log in zip(request["argvs"], request["logs"])
        ]
        sys.stdout.write(json.dumps({"runs": runs}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
