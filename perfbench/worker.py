"""One benchmark pass in a fresh process: set up, run a workload's jobs, report.

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT MODE

SPAWNED_AT is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks
agree).  MODE is `setup` (stop once ready, and describe the
environment), `run` (jobs untraced) or `trace` (a span around every
library call).  One JSON object goes to stdout; the exit code is 0
whenever the jobs ran, failed ones included, and 1 if set-up failed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext

import jobs
import layers
from reference import reference
from spans import Recorder


def _environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _run(job_list, api, recorder, ref) -> dict:
    span = recorder.span if recorder is not None else (lambda name, job=None: nullcontext())
    outputs, failures = {}, []
    routes = [0, 0]  # annihilate jobs whose routes agree, annihilate jobs
    for job in job_list:
        jid = jobs.job_id(job)
        out = None
        try:
            with span("bench.job", job=jid):
                out = jobs.RUNNERS[job["kind"]](api, job)
                with span("bench.check"):
                    problems = jobs.check(job, out, ref)
        except Exception as exc:  # a failing job is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        outputs[jid] = out
        if job["kind"] == "annihilate":
            routes[1] += 1
            routes[0] += out is not None and out["lda"] == out["hankel"]
        if problems:
            failures.append({"job": jid, "problems": problems})
    return {"outputs": outputs, "failures": failures, "routes": routes}


def main(argv: list[str]) -> int:
    workload, seed, spawned_at, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    try:
        bound = layers.bind()  # imports the library, numpy with it
    except layers.BindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    job_list = jobs.job_list(workload, seed)
    ref = reference()
    setup_s = time.monotonic() - spawned_at
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "environment": _environment(),
                          "jobs": job_list}))
        return 0

    recorder = Recorder() if mode == "trace" else None
    api = layers.make_api(bound, recorder)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    done = _run(job_list, api, recorder, ref)
    wall_s = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,
        "attempted": len(job_list),
        "failed": len(done["failures"]),
        "failures": done["failures"],
        "digest": jobs.results_digest(done["outputs"]),
    }
    if recorder is not None:
        result["layers"] = layers.layer_metrics(recorder.spans, wall_s,
                                                tuple(done["routes"]))
        result["spans"] = recorder.to_json()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
