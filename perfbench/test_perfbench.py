"""Checks on the benchmark itself: reference checks, seeds, spans, binding.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import jobs  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
from reference import reference  # noqa: E402
from spans import Recorder, Span, self_times  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return layers.make_api(layers.bind())


def _job(workload: str, kind: str, spec: str, seed: int = 0) -> dict:
    return next(j for j in jobs.job_list(workload, seed)
                if j["kind"] == kind and j["spec"] == spec)


def test_unperturbed_reference_passes(api):
    picked = [_job("certify", "classify", "D(3,4)"), _job("algebra", "annihilate", "E(3,2)")]
    done = worker._run(picked, api, None, reference())
    assert done["failures"] == []


def test_perturbed_reference_counts_as_failure(api):
    ref = reference()
    ref["live_states"]["D(3,4)"] += 1
    ref["annihilator"]["E(3,2)"][0][1] += 1
    picked = [_job("certify", "classify", "D(3,4)"), _job("algebra", "annihilate", "E(3,2)"),
              _job("certify", "classify", "E(3,1)")]
    done = worker._run(picked, api, None, ref)
    failed = {f["job"]: f["problems"] for f in done["failures"]}
    assert set(failed) == {"classify D(3,4)", "annihilate E(3,2) terms=400"}
    assert "live states" in failed["classify D(3,4)"][0]
    assert "annihilator" in failed["annihilate E(3,2) terms=400"][0]


def test_exception_in_a_job_counts_as_failure(api):
    ref = reference()
    del ref["oracle"]["oracle E(3,2) depth=20"]
    done = worker._run([_job("certify", "oracle", "E(3,2)")], api, None, ref)
    assert [f["job"] for f in done["failures"]] == ["oracle E(3,2) depth=20"]


def test_seeds_change_order_and_sampling_only(api):
    for workload in jobs.WORKLOADS:
        one, two = jobs.job_list(workload, 1), jobs.job_list(workload, 2)
        strip = [{k: v for k, v in j.items() if k != "sampling_seed"} for j in one]
        assert sorted(map(jobs.job_id, one)) == sorted(map(jobs.job_id, two))
        assert sorted(map(repr, strip)) == sorted(
            repr({k: v for k, v in j.items() if k != "sampling_seed"}) for j in two)
    assert [jobs.job_id(j) for j in jobs.job_list("certify", 1)] != \
        [jobs.job_id(j) for j in jobs.job_list("certify", 2)]
    digests = []
    for seed in (1, 2):
        picked = [j for j in jobs.job_list("algebra", seed)
                  if j["spec"] in ("E(3,2)", "R(3,0,3)", "D(3,5)")]
        assert {j["sampling_seed"] for j in picked} == {seed}
        done = worker._run(picked, api, None, reference())
        assert done["failures"] == []
        digests.append(jobs.results_digest(done["outputs"]))
    assert digests[0] == digests[1]


def test_self_time_subtracts_covered_child_time():
    spans = [Span("bench.job", "j", None, 0.0, 10.0),
             Span("recur.lda", "j", 0, 1.0, 4.0),
             Span("bench.check", "j", 0, 3.0, 6.0),
             Span("words.palindromic_factors", "j", 2, 3.5, 4.5)]
    assert self_times(spans) == [10.0 - 5.0, 3.0, 2.0, 1.0]


def test_traced_pass_accounts_for_its_wall_time(api):
    recorder = Recorder()
    traced = layers.make_api(layers.bind(), recorder)
    picked = [j for j in jobs.job_list("certify", 0)
              if jobs.job_id(j) in ("classify D(2,10)", "avoidance E(2,5)",
                                    "verify D(2,10) seed=0010 infix=1 nmax=10")]
    t0 = worker.time.perf_counter()
    done = worker._run(picked, traced, recorder, reference())
    wall = worker.time.perf_counter() - t0
    assert done["failures"] == []
    metrics = layers.layer_metrics(recorder.spans, wall, tuple(done["routes"]))
    assert set(metrics) == set(layers.PER_LAYER) - {"trace.overhead_ratio"}
    assert 0.9 < metrics["trace.accounted_ratio"] <= 1.0
    assert {s.job for s in recorder.spans} == {jobs.job_id(j) for j in picked}
    assert metrics["verify.letters"] == sum(5 * 2 ** n - 1 for n in range(11))
    assert metrics["words.share"] > metrics["verify.share"] > 0


def test_missing_name_fails_loudly(monkeypatch):
    monkeypatch.setattr(layers, "CALLS", layers.CALLS + ("polys.no_such_function",))
    with pytest.raises(layers.BindError, match="polys.no_such_function"):
        layers.bind()


def test_refuses_to_run_outside_a_checkout():
    # the benchmark's own directory holds no src/palfac
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
