"""palfac benchmark: closed-loop workloads over the library's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a palfac checkout (the directory holding `src/`).
One client runs the workload's job list in a fresh worker process per
pass, jobs one after another, passes one after another, until the next
pass would end after --seconds (at least one pass).  Each pass's outputs
are checked against the pinned reference in perfbench/reference.py.

--trace 0 reports the end-to-end metrics: medians over the passes of
wall_s (job list time), cpu_s (user+sys over the same interval),
peak_rss_mb (worker ru_maxrss) and setup_s (spawn to ready; several
extra set-up-only workers are started so the median rests on more than
one sample).  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, plus trace.overhead_ratio.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; lines before it are a readable report.  Spans, pass
results and the environment are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from jobs import WORKLOADS  # noqa: E402
from layers import PER_LAYER  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 5
PASS_TIMEOUT_S = 170
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class WorkerError(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders in every pass
    return env


def _spawn(args, env, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd + [repr(started), mode], env=env, cwd=args.root,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} worker exceeded {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{err[-4000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["mode"] = mode
    result["pass_s"] = time.monotonic() - started
    if err.strip():
        sys.stderr.write(err)
    return result


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _run_passes(args, env) -> list[dict]:
    """Passes until the next one would end after --seconds; traced runs alternate."""
    modes = ("run", "trace") if args.trace else ("run",)
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        passes.append(_spawn(args, env, modes[len(passes) % len(modes)]))
        elapsed = time.monotonic() - start
        typical = statistics.fmean(p["pass_s"] for p in passes)
        if len(passes) >= len(modes) and elapsed + typical > args.seconds:
            return passes


def _layer_medians(traced: list[dict], untraced: list[dict]) -> dict:
    metrics = {name: statistics.median([p["layers"][name] for p in traced])
               for name in PER_LAYER if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = (statistics.median([p["wall_s"] for p in traced])
                                       / statistics.median([p["wall_s"] for p in untraced]) - 1)
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("ratio", ".share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.root = Path.cwd()
    if not (args.root / "src" / "palfac" / "__init__.py").is_file():
        print("error: run from the root of a palfac checkout (no src/palfac here)",
              file=sys.stderr)
        return 2

    env = _worker_env(args.root)
    try:
        setups = [_spawn(args, env, "setup") for _ in range(SETUP_SPAWNS)]
        passes = _run_passes(args, env)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if p["mode"] == "run"]
    traced = [p for p in passes if p["mode"] == "trace"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    end_to_end = {
        "wall_s": statistics.median([p["wall_s"] for p in untraced]),
        "cpu_s": statistics.median([p["cpu_s"] for p in untraced]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in untraced]),
        "setup_s": statistics.median([p["setup_s"] for p in setups + passes]),
    }
    environment = {
        **setups[0]["environment"], "nproc": _nproc(), "commit": _commit(args.root),
        "source_digest": _source_digest(args.root), "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "jobs": setups[0]["jobs"],
        "results_digests": sorted({p["digest"] for p in passes}),
    }

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({len(untraced)} untraced), one client, one fresh worker per pass")
    for name, unit in END_TO_END:
        samples = [p[name] for p in (setups + passes if name == "setup_s" else untraced)]
        print(f"  {name:<12} {end_to_end[name]:10.4f} {unit:<5} "
              f"median of {len(samples)}: " + " ".join(f"{v:.4f}" for v in samples))
    print(f"  {'fail_ratio':<12} {failed / attempted:10.4f} ratio "
          f"{failed} of {attempted} jobs failed")
    for p in passes:
        for failure in p["failures"]:
            print(f"  FAILED {failure['job']}: {'; '.join(failure['problems'])}")
    print("environment " + json.dumps({k: v for k, v in environment.items() if k != "jobs"}))

    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in _layer_medians(traced, untraced).items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}

    out_dir = args.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"environment": environment, "end_to_end": end_to_end, "metrics": metrics,
              "passes": passes}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
