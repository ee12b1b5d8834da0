"""Correctness checks of the benchmark, computed apart from the program.

Every workload keeps a plain NumPy model of the array it drives and
compares what the program returns against it.  Nothing here imports
``repro``: the model must not share code with what it checks.
"""

from __future__ import annotations

import numpy as np

QOS_OUTCOMES = ("ok", "errors", "retry_later", "deadline_misses")


class CheckFailed(AssertionError):
    """A program output disagreed with the benchmark's model."""


def check_read(got, want: np.ndarray, order: str, what: str) -> None:
    """``got`` must equal ``want`` element for element and be laid out
    in the memory order the caller asked for."""
    if not isinstance(got, np.ndarray):
        raise CheckFailed(f"{what}: returned {type(got).__name__}, "
                          f"not an ndarray")
    if got.shape != want.shape or got.dtype != want.dtype:
        raise CheckFailed(f"{what}: shape/dtype {got.shape}/{got.dtype} "
                          f"!= model {want.shape}/{want.dtype}")
    if not np.array_equal(got, want):
        bad = np.argwhere(got != want)
        raise CheckFailed(f"{what}: {len(bad)} element(s) differ from the "
                          f"model, first at {tuple(bad[0])}")
    flag = "F_CONTIGUOUS" if order == "F" else "C_CONTIGUOUS"
    if got.ndim > 1 and min(got.shape) > 1 and not got.flags[flag]:
        raise CheckFailed(f"{what}: asked for order {order!r} but the "
                          f"result is not {flag}")


def check_final(got: np.ndarray, model: np.ndarray, what: str) -> None:
    """The whole array read back through a second path equals the
    model (a dropped acknowledged write shows here)."""
    check_read(got, model, "C", what)


def check_qos(stats: dict) -> None:
    """The daemon's QoS counters obey conservation: every request ended
    in exactly one outcome, per client and in the totals."""
    qos = stats.get("qos")
    if not isinstance(qos, dict) or "totals" not in qos:
        raise CheckFailed("stats snapshot carries no QoS counters")
    rows = dict(qos.get("clients", {}))
    rows["<totals>"] = qos["totals"]
    for name, row in rows.items():
        outcomes = sum(int(row[k]) for k in QOS_OUTCOMES)
        if int(row["requests"]) != outcomes:
            raise CheckFailed(
                f"QoS conservation broken for {name}: requests="
                f"{row['requests']} != ok+errors+retry_later+"
                f"deadline_misses={outcomes}")


def check_no_data_write(written_bytes: int, what: str) -> None:
    """An extend of a plain (codec ``none``) array writes no byte of the
    data file: chunks already written never move."""
    if written_bytes != 0:
        raise CheckFailed(f"{what}: extend wrote {written_bytes} byte(s) "
                          f"of the data file")
