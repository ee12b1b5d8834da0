"""The repository's benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload local-hot-rw --seed 1 \\
        --seconds 10 --trace 0

Runs the workload in a fresh process whose environment has every
``DRX_*`` variable removed, checks every output against the
benchmark's NumPy model, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs the workload once untraced and once traced (same seed), prints
each end-to-end metric traced beside untraced, and reports the
per-layer metrics.  ``--smoke`` runs a few operations per workload.

Workloads: local-hot-rw, ooc-scan-codec, served-rw, collective-zone.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("local-hot-rw", "ooc-scan-codec", "served-rw",
             "collective-zone")
DEFAULT_SEED = 1
CHILD_TIMEOUT = 170.0


def clean_env() -> dict:
    """The workload's environment: no ``DRX_*`` setting survives, and
    the program is imported from this checkout's ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRX_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # glibc's sliding mmap threshold and heap trimming made the number of
    # fresh, zero-filled pages behind NumPy buffers differ from episode to
    # episode; fixed thresholds keep freed memory in the heap for reuse
    env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 30)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 32)
    return env


def run_child(workload: str, seed: int, seconds: int, trace: int,
              smoke: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    result = OUT / f"result-{workload}-s{seed}-t{trace}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--result", str(result), "--out-dir", str(OUT),
           "--spawn-ns", str(time.perf_counter_ns())]
    if smoke:
        cmd.append("--smoke")
    # own session, so a timeout also ends the daemon a workload started
    proc = subprocess.Popen(cmd, env=clean_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if not result.exists():
        raise SystemExit(f"run.py: workload process exited "
                         f"{proc.returncode} without a result")
    return json.loads(result.read_text())


def run_seconds() -> int:
    """The run length BENCHMARK.json declares."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def e2e_names() -> list[str]:
    """The end-to-end metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]]


def per_layer_names() -> list[tuple[str, str]]:
    sys.path.insert(0, str(HERE))
    from spans import PER_LAYER
    return [(n, u) for n, u, _b in PER_LAYER]


def describe(res: dict, label: str) -> None:
    cfg = res["config"]
    print(f"[{label}] workload={cfg['workload']} seed={cfg['seed']} "
          f"episodes={cfg['episodes']} executor_threads="
          f"{cfg['executor_threads']} codec={cfg['codec']} "
          f"nservers={cfg['nservers']} hints={json.dumps(cfg['hints'])}")
    kinds = sorted(res["attempted"])
    print(f"[{label}] timed phases: {res['timed_s']:.2f} s")
    print(f"[{label}] ops: " + ", ".join(
        f"{k} attempted={res['attempted'][k]} "
        f"failed={res['failed'].get(k, 0)}" for k in kinds))
    if res.get("error"):
        print(f"[{label}] ERROR: {res['error']}")
        return
    for name, val in res["e2e"].items():
        extra = ""
        if len(val) == 4:
            extra = f" (p{val[2]:.2f} of {val[3]} samples)"
        print(f"[{label}] {name} = {val[0]:.6g} {val[1]}{extra}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=run_seconds())
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"run.py: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    res = run_child(args.workload, args.seed, args.seconds, 0, args.smoke)
    describe(res, "untraced")
    runs = [res]
    if args.trace:
        traced = run_child(args.workload, args.seed, args.seconds, 1,
                           args.smoke)
        describe(traced, "traced")
        runs.append(traced)
        if traced.get("error") is None and res.get("error") is None:
            print(f"{'metric':<28}{'untraced':>14}{'traced':>14}"
                  f"{'overhead':>10}")
            for name, val in res["e2e"].items():
                tv = traced["e2e"][name][0]
                over = (tv / val[0] - 1) * 100 if val[0] else 0.0
                print(f"{name:<28}{val[0]:>14.6g}{tv:>14.6g}"
                      f"{over:>9.1f}%")
            print(f"spans written to {traced.get('spans_file')}")
    correct = all(r.get("error") is None for r in runs)
    last = runs[-1]
    metrics = {}
    if correct and args.trace:
        for name, unit in per_layer_names():
            metrics[name] = {"value": last["layers"][name], "unit": unit}
    elif correct:
        for name in e2e_names():
            val = last["e2e"][name]
            metrics[name] = {"value": val[0], "unit": val[1]}
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(last["attempted"].values())),
        "failed": sum(last["failed"].values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
