"""One test per reproduction row, so the suite prints one verdict per claim.

Rows flagged known_discrepancy assert reference values that the companion
certificate rows prove wrong; they are strict xfails so the suite stays
green while the discrepancy stays visible and any drift trips an XPASS.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import palfac
from palfac.reproduce import row_descriptors

ROWS = row_descriptors()
# sha256 of the full registry's stdout: every row's name, verdict and values
REGISTRY_DIGEST = "44a855db9716aab0df8bb3d5999c606ad78706a72c0858e22043b99bb1f55c8e"


def _param(name, fn, known):
    if known:
        mark = pytest.mark.xfail(
            strict=True,
            reason="reference value is wrong; see the matching certificate row "
                   "and the acceptance notes in the README")
        return pytest.param(fn, id=name, marks=mark)
    return pytest.param(fn, id=name)


@pytest.mark.parametrize(
    "fn", [_param(name, fn, known) for name, _, _, fn, known in ROWS])
def test_row(fn):
    passed, expected, actual = fn()
    assert passed, f"expected {expected}, got {actual}"


def test_registry_shape():
    names = [name for name, *_ in ROWS]
    assert len(names) == len(set(names)), "duplicate row names"
    groups = {group for _, group, *_ in ROWS}
    assert {"state-counts", "classification", "sequences", "annihilators",
            "matrix-polynomials", "asymptotics", "oracle-agreement",
            "avoidance-crosscheck", "stabilization", "properties"} <= groups
    sections = {section for _, _, section, *_ in ROWS}
    assert {5, 6, 7, 8, None} <= sections


def test_rows_hold_under_optimized_python():
    # certificates raise real exceptions, so `python -O` (which strips
    # asserts) must give the same rows as a normal run; the two runs cover
    # the whole registry and run side by side
    src = str(Path(palfac.__file__).resolve().parents[1])
    runs = [subprocess.Popen([sys.executable, *flags, "-m", "palfac.cli", "reproduce"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
            for flags in ([], ["-O"])]
    rows, digests = [], []
    for run in runs:
        stdout, stderr = run.communicate()
        assert run.returncode == 0, stderr
        rows.append([json.loads(line) for line in stdout.splitlines()])
        digests.append(hashlib.sha256(stdout.encode()).hexdigest())
    plain, optimized = rows
    assert digests[0] == REGISTRY_DIGEST
    assert [row["name"] for row in plain] == [name for name, *_ in ROWS]
    assert plain == optimized
    verdicts = {}
    for row in plain:
        verdicts.setdefault(row["group"], set()).add(row["status"])
    for group, want in (("classification", {"PASS", "XFAIL"}),
                        ("oracle-agreement", {"PASS"}),
                        ("state-counts", {"PASS"}),
                        ("sequences", {"PASS", "XFAIL"}),
                        ("annihilators", {"PASS"}),
                        ("matrix-polynomials", {"PASS"}),
                        ("asymptotics", {"PASS"})):
        assert verdicts[group] == want
