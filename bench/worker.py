"""One benchmark measurement, in a fresh interpreter started by run.py.

    python3 bench/worker.py '<job JSON>'

The job names the checkout root, the workload scenario, the seed, the
time budget and whether to trace. The worker imports leoris and loads the
scenario first, before any benchmark code, so that its set-up time is the
one a user of ``leoris run`` pays. It prints one JSON object as its last
line of output.
"""

import json
import os
import sys
import time


def _monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so it compares with the parent's
    # reading taken just before this interpreter was started.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    t0 = time.perf_counter()
    import leoris
    t1 = time.perf_counter()
    cfg = leoris.load_scenario(job["scenario"])
    t2 = time.perf_counter()
    setup = {"setup_s": _monotonic() - job["spawned"], "import_s": t1 - t0, "load_s": t2 - t1}
    expected = os.path.join(job["root"], "src", "leoris", "__init__.py")
    if os.path.realpath(leoris.__file__) != os.path.realpath(expected):
        print(f"error: imported leoris from {leoris.__file__}, not {expected}", file=sys.stderr)
        return 3
    if job.get("setup_only"):
        print(json.dumps(setup))
        return 0
    from measure import measure

    print(json.dumps(measure(leoris, cfg, job, setup)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
