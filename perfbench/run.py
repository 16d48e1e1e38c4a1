"""topolab benchmark: cold claim runs and a seeded omega-skeleton sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/topolab``; it needs
nothing beyond the standard library.  Workloads: ``catalog``,
``exhaustive4``, ``sampled5``, ``omega-sweep`` (see ``worker.py``).

Every pass runs in a fresh interpreter (``worker.py``) with ``src`` on
``PYTHONPATH`` and ``PYTHONHASHSEED`` fixed, because topolab's module-level
caches would turn a repeat inside one process into cache hits, and a
command-line user pays the cold cost on every call.  Passes repeat while
the next one's predicted midpoint falls within ``--seconds``; at least one
runs.  A ``sampled5`` pass, whose set-up takes about as long as its work,
instead repeats its round over labelings new to the process within the
same limit.  Set-up alone is then repeated in extra fresh interpreters,
within an eighth of ``--seconds``, so that ``setup_s`` is a median of up
to eleven.  Each round's outputs are checked against
``perfbench/reference`` and against independent checks after its timed
region.

End-to-end metrics (``--trace 0``, on the last line too): ``setup_s``
(import topolab and build the inputs; median), ``wall_s`` (set-up to the
last verdict: the sum over the units of a round, a claim run or one
skeleton's decisions, of each unit's median time over the rounds, so that
a burst of load on a shared machine moves one unit's sample and not the
figure), ``checks_per_s`` (claim instances checked, or (skeleton,
property) decisions, per second of ``wall_s``; median count),
``decided_ratio`` (definite verdicts / attempted) and ``peak_rss_mb``
(median over the passes of the first round's peak).  ``failed_ratio``
(failed operations / attempted) is printed with them and is the last
line's ``failed`` / ``attempted``.

The three times are given at the reference speed: set-up and each unit
are scaled by how much slower than ``worker.PROBE_REF_S`` the speed probe,
fixed work in ``worker.py`` that imitates topolab's finite core, ran just
before and after them.  A shared host's speed drifts by a quarter within a
minute and moves the probe and topolab alike, so the scaled times hold
where the raw ones do not, while a change to topolab moves both the same.
The raw times are printed as ``setup_raw_s``, ``wall_raw_s`` and
``checks_per_raw_s``, and ``speed_vs_ref`` is their ratio to the scaled
``wall_s``.

With ``--trace 1`` one more pass runs under ``tracer.py``; it gives every
per-layer metric and the tracing overhead against the untraced passes,
and its spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every pass passed its correctness gate, 1 when one did not, and 2 when the
topolab source or a worker is missing or broken.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalog", "exhaustive4", "sampled5", "omega-sweep")
DEADLINE_S = 170  # a run, its passes and its traced pass included
SETUP_SAMPLES = 11


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, hash_seed: int,
               deadline: float, budget: float = 0.0) -> tuple[dict, float]:
    """One pass in a fresh interpreter; returns its result and duration.
    ``budget`` bounds the rounds of a pass that repeats them; the worker is
    killed once ``deadline`` (a perf_counter time) passes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(hash_seed))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode,
             f"{budget:.3f}"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"{mode} pass passed the {DEADLINE_S} s deadline") from err
    took = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} pass exited {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), took


def machine() -> dict:
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def metric_line(name, value, unit, note=""):
    print(f"metric {name} = {value:.6g} {unit}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--hash-seed", type=int, default=0,
                    help="PYTHONHASHSEED for the workers (default 0)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "topolab" / "__init__.py").is_file():
        print(f"perfbench: no topolab source under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    # compile once, so that the first pass does not pay for bytecode
    compileall.compile_dir(ROOT / "src" / "topolab", quiet=1)
    print(f"machine {json.dumps(machine())}")

    wl, seed, hs = args.workload, args.seed, args.hash_seed
    passes = []
    try:
        start = time.perf_counter()
        deadline = start + DEADLINE_S
        while True:
            budget = args.seconds - (time.perf_counter() - start)
            result, took = run_worker(wl, seed, "plain", hs, deadline, budget)
            passes.append(result)
            for k, rnd in enumerate(result["rounds"]):
                print(f"pass {len(passes)} round {k}: "
                      f"setup_s={result['setup_s']:.4f} "
                      f"wall_s={rnd['wall_s']:.4f} cpu_s={rnd['cpu_s']:.4f} "
                      f"gate_s={rnd['gate_s']:.3f} ops={rnd['operations']} "
                      f"failed={rnd['failed_operations']}")
            if time.perf_counter() - start + took / 2 > args.seconds:
                break
        setups = [(p["setup_s"], p["setup_ref_s"]) for p in passes]
        spent = 0.0
        while (len(setups) < SETUP_SAMPLES
               and spent + statistics.median(s for s, _ in setups)
               <= args.seconds / 8):
            result, took = run_worker(wl, seed, "setup", hs, deadline)
            setups.append((result["setup_s"], result["setup_ref_s"]))
            spent += took
        traced = (run_worker(wl, seed, "traced", hs, deadline)[0]
                  if args.trace else None)
    except WorkerError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    rounds = [r for p in passes for r in p["rounds"]]
    checked = rounds + (traced["rounds"] if traced else [])
    attempted = sum(r["operations"] for r in checked)
    failed = sum(r["failed_operations"] for r in checked)
    problems = sorted({msg for r in checked for msg in r["problems"]})
    notes = sorted({msg for r in checked for msg in r["notes"]})
    correct = not problems and not failed
    for msg in problems:
        print(f"GATE FAIL {wl}: {msg}")
    for msg in notes:
        print(f"gate note {wl}: {msg}")
    print(f"gate {wl}: {'PASS' if correct else 'FAIL'} "
          f"({attempted - failed}/{attempted} operations match)")

    n = len(rounds)

    def unit_medians(key):
        return sum(statistics.median(r[key][unit] for r in rounds)
                   for unit in rounds[0][key])

    wall_s, wall_ref_s = unit_medians("units"), unit_medians("ref_units")
    checks = statistics.median(r["checks"] for r in rounds)
    decided = rounds[0]["decided"]
    setup_s = statistics.median(s for _, s in setups)
    e2e = {
        "setup_s": (setup_s, "s", f" (median of {len(setups)})"),
        "wall_s": (wall_ref_s, "s", f" (unit medians over {n} rounds)"),
        "checks_per_s": (checks / wall_ref_s, "1/s", f" ({checks} checks per round)"),
        "decided_ratio": (decided / rounds[0]["checks"], "ratio",
                          f" ({decided}/{rounds[0]['checks']})"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB", ""),
    }
    for name, (value, unit, note) in e2e.items():
        metric_line(name, value, unit, note)
    metric_line("failed_ratio", failed / attempted, "ratio", f" ({failed}/{attempted})")
    metric_line("setup_raw_s", statistics.median(s for s, _ in setups), "s")
    metric_line("wall_raw_s", wall_s, "s", " (median round "
                f"{statistics.median(r['wall_s'] for r in rounds):.4f} s)")
    metric_line("checks_per_raw_s", checks / wall_s, "1/s")
    metric_line("speed_vs_ref", wall_ref_s / wall_s, "ratio")

    if traced is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
    else:
        layers = {k: tuple(v) for k, v in traced["layers"].items()}
        layers["trace.untraced_wall_s"] = (wall_s, "s")
        traced_wall = traced["rounds"][0]["wall_s"]
        layers["trace.traced_wall_s"] = (traced_wall, "s")
        layers["trace.slowdown"] = (traced_wall / wall_s, "ratio")
        for name, (value, unit) in layers.items():
            metric_line(name, value, unit)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{wl}-seed{seed}-hash{hs}.json"
        path.write_text(json.dumps({
            "workload": wl, "seed": seed, "hash_seed": hs, "machine": machine(),
            "layers": layers, "spans": traced["spans"],
        }, indent=1) + "\n", encoding="utf-8")
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    print(f"machine-after {json.dumps(machine())}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
