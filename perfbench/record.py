"""Record the reference outputs that the benchmark's correctness gate
compares against.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/record.py [WORKLOAD ...]

Runs each named workload (default: all) once at its reference seed and
writes ``perfbench/reference/<workload>.json``.  Claim workloads store, per
claim run, the counts and the SHA-256 of the report JSON without ``ms``.
``omega-sweep`` stores its verdict table; while recording, every ``False``
cover verdict's escape witness is validated once with
``smoke_test_witness`` where the finite probe fits, because that costs up
to seconds per witness.  A probe fits when it has at most PROBE_POINTS
points with every omega node cut to between 3 and 6 copies: building an
explicit near-discrete space costs O(|opens|^2), so larger probes take
minutes.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCE_DIR, REFERENCE_SEEDS, WORKLOADS, digest

PROBE_POINTS = 12


def probe_copies(sk) -> int:
    """Copies per omega node for the smoke test's probe; 0 if none fits."""
    fixed = sum(nd.card * nd.size for nd in sk.nodes if not nd.is_omega)
    per_copy = sum(nd.size for nd in sk.nodes if nd.is_omega)
    copies = min(6, (PROBE_POINTS - fixed) // per_copy)
    return copies if copies >= 3 else 0


def record_claims(wl, outputs: dict) -> dict:
    reports = {}
    for op, data in outputs.items():
        if op.startswith("claim:"):
            reports[op] = {"status": data["status"], "checked": data["checked"],
                           "violations": len(data["violations"]),
                           "unknowns": data["unknowns"], "sha256": digest(data)}
        else:
            reports[op] = data
    return {"reports": reports}


def record_omega(wl, outputs: dict) -> dict:
    from topolab import properties as P

    held = skipped = 0
    broken = []
    for k, sk in enumerate(wl.skeletons):
        copies = probe_copies(sk)
        for prop, cp in P.COVER_PROPERTIES.items():
            verdict = P.check_cover(sk, prop)
            if verdict.outcome is not False:
                continue
            if not copies:
                skipped += 1
            elif P.smoke_test_witness(sk, cp, verdict.witness, omega_size=copies):
                held += 1
            else:
                broken.append(f"{k}:{prop}")
    if broken:
        raise SystemExit(f"escape witnesses failed their smoke test: {broken}")
    return {"table": wl.table(outputs),
            "witnesses": {"smoke_tested": held, "probe_too_large": skipped}}


def main(names):
    for name in names or list(WORKLOADS):
        seed = REFERENCE_SEEDS[name]
        wl = WORKLOADS[name](name, seed)
        outputs = wl.run()
        body = (record_omega if name == "omega-sweep" else record_claims)(wl, outputs)
        ref = {"workload": name, "seed": seed, **body}
        REFERENCE_DIR.mkdir(exist_ok=True)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        failed, problems, notes = wl.gate(outputs, ref)
        print(f"{name}: seed {seed}, {len(outputs)} operations, "
              f"{len(failed)} failed {problems} {notes}")


if __name__ == "__main__":
    main(sys.argv[1:])
