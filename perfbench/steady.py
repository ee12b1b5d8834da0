"""Steadiness report: run workloads repeatedly, one seed per run, and
print per end-to-end metric the median, the quartiles and the spread
(interquartile distance over median) against the metric's bound in
``BENCHMARK.json``.

    python3 perfbench/steady.py --runs 10 [--workload served-rw ...]

The tail latencies are reported too; they are not in ``BENCHMARK.json``
when their spread does not stay within a bound.  Results are saved to
``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import OUT, ROOT, WORKLOADS, run_child, run_seconds  # noqa: E402


def bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def report(workload: str, results: list[dict]) -> dict:
    rows = {}
    lim = bounds()
    names = results[0]["e2e"].keys()
    print(f"\n{workload}: {len(results)} runs, seeds "
          f"{[r['config']['seed'] for r in results]}")
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}  ok")
    for name in names:
        vals = [r["e2e"][name][0] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = lim.get(name)
        ok = "-" if bound is None else \
            ("yes" if spread <= bound / 3 else
             "near" if spread <= bound else "NO")
        print(f"{name:<28}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
              f"{spread:>9.4f}{bound if bound is not None else '-':>8}"
              f"  {ok}")
        rows[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                      "spread": spread, "bound": bound}
    failed = [sum(r["failed"].values()) for r in results]
    attempted = [sum(r["attempted"].values()) for r in results]
    print(f"attempted {attempted}  failed {failed}")
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=run_seconds())
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args(argv)
    ok = True
    for w in args.workload or WORKLOADS:
        results = []
        for i in range(args.runs):
            res = run_child(w, args.first_seed + i, args.seconds, 0, False)
            if res.get("error"):
                print(f"{w} seed {args.first_seed + i}: {res['error']}")
                ok = False
                break
            results.append(res)
        if len(results) >= 2:
            rows = report(w, results)
            (OUT / f"steady-{w}.json").write_text(json.dumps(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
