"""Check the benchmark's steadiness and the tracer's determinism.

    python3 perfbench/stability.py spread WORKLOAD FIRST_SEED COUNT [SECONDS]
    python3 perfbench/stability.py counts WORKLOAD SEED [SECONDS]

``spread`` runs ``run.py`` once per seed (FIRST_SEED, FIRST_SEED + 1, ...)
and prints, for every end-to-end metric, the median and the quartile
spread (Q3 - Q1) / median, with the quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound in
``BENCHMARK.json``.  ``counts`` runs the traced pass twice under
``PYTHONHASHSEED`` 0 and once under 1, and checks that every per-layer
count repeats exactly.  Run from the root of the checkout; raw results go
to ``perfbench/out/``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, seed, seconds, trace=0, hash_seed=0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--hash-seed", str(hash_seed)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode}:\n"
                         f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(workload, first, count, seconds):
    runs = []
    for seed in range(first, first + count):
        res = bench(workload, seed, seconds)
        runs.append({"seed": seed, **res})
        vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
        print(f"seed {seed}: correct={res['correct']} {vals}", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{workload}-{first}-{count}.json").write_text(
        json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    worst = 0.0
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, share / m["bound"])
        print(f"{workload} {m['name']}: median {med:.6g} {m['unit']}, "
              f"spread {share:.4f} (bound {m['bound']}, "
              f"{share / m['bound']:.2f} of it)")
    print(f"{workload}: all correct: {all(r['correct'] for r in runs)}; "
          f"largest spread / bound (setup_s aside): {worst:.2f}")


def counts(workload, seed, seconds):
    runs = [bench(workload, seed, seconds, trace=1, hash_seed=h) for h in (0, 0, 1)]
    names = [n for n, v in runs[0]["metrics"].items() if v["unit"] == "count"]
    differ = [n for n in names
              if len({r["metrics"][n]["value"] for r in runs}) != 1]
    print(f"{workload} seed {seed}: {len(names)} counts; "
          f"differ across runs and hash seeds: {differ or 'none'}")
    return not differ


if __name__ == "__main__":
    cmd, *rest = sys.argv[1:]
    if cmd == "spread":
        spread(rest[0], int(rest[1]), int(rest[2]),
               float(rest[3]) if len(rest) > 3 else SPEC["run_seconds"])
    elif cmd == "counts":
        ok = counts(rest[0], int(rest[1]),
                    float(rest[2]) if len(rest) > 2 else SPEC["run_seconds"])
        sys.exit(0 if ok else 1)
    else:
        sys.exit(__doc__)
