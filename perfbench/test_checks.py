"""Tests of the benchmark's own correctness checks, and a smoke run of
every workload.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import CheckFailed, check_final, check_qos, check_read  # noqa: E402
from run import WORKLOADS  # noqa: E402

from repro.drx import DRXFile  # noqa: E402


def test_read_with_one_flipped_element_fails():
    want = np.arange(48.0).reshape(6, 8)
    got = want.copy()
    got[3, 5] = -got[3, 5]
    with pytest.raises(CheckFailed, match="differ"):
        check_read(got, want, "C", "flipped")
    check_read(want.copy(), want, "C", "clean")


def test_f_order_request_answered_in_c_layout_fails():
    want = np.arange(48.0).reshape(6, 8)
    with pytest.raises(CheckFailed, match="F_CONTIGUOUS"):
        check_read(np.ascontiguousarray(want), want, "F", "layout")
    check_read(np.asfortranarray(want), want, "F", "layout")


def test_f_order_read_of_the_program_passes():
    a = DRXFile.create(None, (20, 30), (8, 8))
    model = np.random.default_rng(0).standard_normal((20, 30))
    a.write((0, 0), model)
    check_read(a.read((3, 4), (17, 29), "F"), model[3:17, 4:29], "F",
               "program F read")


def test_dropped_acknowledged_write_fails():
    a = DRXFile.create(None, (16, 16), (4, 4))
    model = np.zeros((16, 16))
    vals = np.ones((4, 4))
    a.write((0, 0), vals)               # acknowledged and applied
    model[0:4, 0:4] = vals
    model[8:12, 8:12] = vals            # acknowledged, never applied
    with pytest.raises(CheckFailed):
        check_final(a.read_all(), model, "dropped write")


def _stats(requests: int) -> dict:
    row = {"requests": requests, "ok": 5, "errors": 1, "retry_later": 2,
           "deadline_misses": 0}
    return {"qos": {"clients": {"t0": dict(row)}, "totals": dict(row)}}


def test_qos_conservation_violation_fails():
    check_qos(_stats(8))
    with pytest.raises(CheckFailed, match="conservation"):
        check_qos(_stats(9))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] > 0
    assert all(m["value"] > 0 for m in last["metrics"].values()), last
