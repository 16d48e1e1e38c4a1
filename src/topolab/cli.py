"""Command-line front end.

Exit codes: 0 success / all pass; 1 claim violation or classification
mismatch; 2 unknown verdicts where definiteness was required; 3 malformed
input.  Text output is stable and line-oriented; JSON is the machine
interface.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from topolab.core import (
    OPERATORS,
    FiniteSpace,
    TopologyError,
    mask_of,
    numeral,
    parse_topo,
    points_of,
    signed_numeral,
)
from topolab.properties import (
    COVER_PROPERTIES,
    SIMPLE_PROPERTIES,
    check_cover,
    check_cover_relative,
    check_simple,
    flagged,
)
from topolab.skeleton import (
    SkeletonError,
    SkeletonSpace,
    SymbolicSet,
    catalog,
    catalog_names,
    parse_skel,
    realized_opens_description,
)
from topolab.verify import (
    CLAIMS,
    HUNT_TARGETS,
    Universe,
    _trivial,
    all_topologies,
    run_claim,
    search_counterexample,
    topologies_by_family_scan,
    topologies_by_preorder,
)

OPS = tuple(OPERATORS)


class CliError(Exception):
    def __init__(self, message, code=3):
        super().__init__(message)
        self.code = code


def _load_space(path: str):
    if path.startswith("catalog:"):
        try:
            return catalog(path.split(":", 1)[1]).space
        except SkeletonError as err:
            raise CliError(str(err)) from err
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    # ValueError: not UTF-8
    except (OSError, ValueError) as err:
        raise CliError(f"cannot read {path}: {err}") from err
    try:
        if path.endswith(".skel"):
            return parse_skel(text)
        return parse_topo(text)
    except (TopologyError, SkeletonError) as err:
        raise CliError(f"{path}: {err}") from err


def _parse_set(space: FiniteSpace, text: str) -> int:
    if text in ("", "-"):
        return 0
    pts = [numeral(t) for t in text.split(",")]
    if None in pts:
        raise CliError(f"bad set literal {text!r}: want point numbers "
                       "in ASCII digits, separated by commas")
    try:
        return mask_of(pts, space.n)
    except TopologyError as err:
        raise CliError(f"bad set literal {text!r}: {err}") from err


def _parse_symbolic_set(space: SkeletonSpace, path: str) -> SymbolicSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError: bad JSON or UTF-8; RecursionError: nesting too deep to decode
    except (OSError, ValueError, RecursionError) as err:
        raise CliError(f"cannot read symbolic set {path}: {err}") from err
    try:
        return SymbolicSet.from_json(space, data)
    except SkeletonError as err:
        raise CliError(f"bad symbolic set {path}: {err}") from err


def _subset(space, args):
    """The set the command names: ``--set`` (empty when absent) on a finite
    space, ``--symbolic-set`` on a skeleton."""
    if isinstance(space, FiniteSpace):
        return _parse_set(space, args.set if args.set is not None else "")
    if args.symbolic_set is None:
        raise CliError("skeleton spaces need --symbolic-set")
    return _parse_symbolic_set(space, args.symbolic_set)


def _fmt_mask(mask: int) -> str:
    return "{" + " ".join(str(p) for p in points_of(mask)) + "}"


def _normalize_prop(name: str) -> str:
    if name in COVER_PROPERTIES or name in SIMPLE_PROPERTIES:
        return name
    lowered = name.lower()
    if lowered == "s-closed" and name != "s-closed":
        return "S-closed"
    if lowered in COVER_PROPERTIES or lowered in SIMPLE_PROPERTIES:
        return lowered
    raise CliError(f"unknown property {name!r}")


def _cmd_ops(args) -> int:
    space = _load_space(args.space)
    a = _subset(space, args)
    for op in args.op or OPS:  # argparse keeps --op to OPS
        out = space.operator(op, a)
        print(f"{op}: {_fmt_mask(out) if isinstance(space, FiniteSpace) else out}")
    return 0


def _cmd_classify(args) -> int:
    space = _load_space(args.space)
    flags = space.classify(_subset(space, args))
    for name, value in flags.as_dict().items():
        print(f"{name}: {str(value).lower()}")
    return 0


def _verdict_word(outcome) -> str:
    return {True: "true", False: "false", None: "unknown"}[outcome]


def _cmd_check(args) -> int:
    space = _load_space(args.space)
    prop = _normalize_prop(args.prop)
    if args.explain and isinstance(space, SkeletonSpace) and space.finite:
        print(realized_opens_description(space))
    if prop in SIMPLE_PROPERTIES:
        value = check_simple(space, prop)
        print(str(value).lower())
        return 0
    verdict = check_cover(space, prop)
    print(_verdict_word(verdict.outcome))
    if args.explain and verdict.certificate:
        print(f"certificate: {json.dumps(verdict.certificate, sort_keys=True)}")
    if args.explain and verdict.witness:
        print(f"witness: {json.dumps(verdict.witness, sort_keys=True)}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(verdict.to_json(), fh, indent=2, sort_keys=True)
    return 0 if verdict.outcome is not None else 2


def _cmd_relative(args) -> int:
    space = _load_space(args.space)
    prop = _normalize_prop(args.prop)
    if prop not in COVER_PROPERTIES:
        raise CliError(f"{prop!r} is not a cover property")
    verdict = check_cover_relative(space, _subset(space, args), prop)
    print(_verdict_word(verdict.outcome))
    if args.explain and verdict.certificate:
        print(f"certificate: {json.dumps(verdict.certificate, sort_keys=True)}")
    if args.explain and verdict.witness:
        print(f"witness: {json.dumps(verdict.witness, sort_keys=True)}")
    return 0 if verdict.outcome is not None else 2


def _cmd_enumerate(args) -> int:
    n = args.n
    if not 1 <= n <= 5:
        raise CliError("enumerate supports 1 <= n <= 5")
    if args.method in ("family", "both") and n > 4:
        raise CliError(f"method '{args.method}' scans families only for n <= 4")
    if args.method == "both":
        fam = topologies_by_family_scan(n)
        pre = topologies_by_preorder(n)
        agree = fam == pre
        print(f"family-scan: {len(fam)}")
        print(f"preorder: {len(pre)}")
        print(f"agree: {str(agree).lower()}")
        return 0 if agree else 1
    spaces = (topologies_by_family_scan(n) if args.method == "family"
              else all_topologies(n))
    if args.count:
        print(len(spaces))
        return 0
    for sp in spaces:
        opens = ";".join(",".join(map(str, points_of(o))) for o in sp.opens)
        print(f"opens {opens}")
    return 0


def _cmd_verify(args) -> int:
    if args.claims == "all":
        cids = sorted(CLAIMS)
    else:
        cids = [c.strip() for c in args.claims.split(",") if c.strip()]
        for cid in cids:
            if cid not in CLAIMS:
                raise CliError(f"unknown claim {cid!r}")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise CliError(f"--jobs must be 1..{cpus} (the CPU count)")
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, not {args.samples}")
    try:
        universe = Universe.parse(args.universe)
    except ValueError as err:
        raise CliError(str(err)) from err
    seed = args.seed
    reports = []
    worst = 0
    for cid in cids:
        rep = run_claim(cid, universe, seed=seed, samples=args.samples,
                        exhaustive=args.exhaustive_subsets, jobs=args.jobs)
        reports.append(rep)
        line = (f"{rep.claim}: {rep.status} checked={rep.checked} "
                f"violations={len(rep.violations)} unknowns={rep.unknowns} "
                f"ms={rep.ms}")
        print(line)
        if rep.violations:
            worst = max(worst, 1)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"universe": universe.to_json(),
                       "seed": seed,
                       "reports": [r.to_json() for r in reports]},
                      fh, indent=2, sort_keys=True)
    return worst


def _cmd_hunt(args) -> int:
    try:
        universe = Universe.parse(args.universe)
    except ValueError as err:
        raise CliError(str(err)) from err
    if args.reverse:
        if "=>" not in args.reverse:
            raise CliError("--reverse wants 'P=>Q'")
        p, q = (t.strip() for t in args.reverse.split("=>", 1))
        p, q = _normalize_prop(p), _normalize_prop(q)
        for name in (p, q):
            if name not in COVER_PROPERTIES:
                raise CliError(f"{name!r} is not a cover property")
        res = search_counterexample((p, q), universe)
    elif args.target:
        if args.target not in HUNT_TARGETS:
            raise CliError(f"unknown hunt target {args.target!r}")
        res = search_counterexample(args.target, universe)
    else:
        raise CliError("hunt wants --reverse or --target")
    if res["witness"] is not None:
        print(f"witness: {res['witness']}")
        print(f"details: {json.dumps(res['details'], sort_keys=True)}")
    else:
        print("witness: none")
    print(f"checked: {res['checked']} skipped-unknown: {res['skipped_unknown']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=2, sort_keys=True)
    return 0


def _cmd_catalog(args) -> int:
    if args.name and not args.check:
        entry = catalog(args.name)
        print(f"name: {entry.name}")
        if isinstance(entry.space, FiniteSpace):
            print(f"space: {entry.space}")
        else:
            print("space:")
            for line in str(entry.space).splitlines():
                print(f"  {line}")
            if entry.space.finite:
                print(realized_opens_description(entry.space))
        for key, val, prov in entry.expected:
            print(f"expected {key}: {str(val).lower()} [{prov}]")
        if entry.note:
            print(f"note: {entry.note}")
        return 0
    names = [args.name] if args.name else list(catalog_names())
    worst = 0
    results = []
    for name in names:
        entry = catalog(name)
        for key, want, prov in entry.expected:
            got = _catalog_value(entry.space, key)
            results.append({"entry": name, "key": key, "expected": want,
                            "computed": got, "provenance": prov})
            word = _verdict_word(got)
            status = "ok" if got is want else ("unknown" if got is None
                                               else "MISMATCH")
            print(f"{name} {key}: expected={str(want).lower()} "
                  f"computed={word} [{prov}] {status}")
            if got is None:
                worst = max(worst, 2)
            elif got is not want:
                worst = max(worst, 1)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
    return worst


def _catalog_value(space, key: str):
    if key in SIMPLE_PROPERTIES:
        return check_simple(space, key)
    if key in COVER_PROPERTIES:
        return check_cover(space, key).outcome
    if key == "all-proper-preregular-relatively-p-closed":
        out = True
        for a in flagged(space, "preregular"):
            if _trivial(space, a):
                continue
            v = check_cover_relative(space, a, "p-closed").outcome
            if v is None:
                return None
            if v is False:
                out = False
        return out
    raise CliError(f"unknown expected key {key!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topolab",
        description="operators, property checks and claim verification for "
                    "finite and finitely-presented topological spaces",
    )
    default_seed = signed_numeral(os.environ.get("TOPOLAB_SEED", "0"))
    if default_seed is None:
        raise CliError("TOPOLAB_SEED must be an integer in ASCII digits, "
                       "with an optional leading '-'")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("ops", help="apply set operators")
    p.add_argument("--space", required=True)
    p.add_argument("--set", default=None)
    p.add_argument("--symbolic-set", default=None)
    p.add_argument("--op", action="append", choices=OPS)
    p.set_defaults(fn=_cmd_ops)

    p = sub.add_parser("classify", help="classify a subset")
    p.add_argument("--space", required=True)
    p.add_argument("--set", default=None)
    p.add_argument("--symbolic-set", default=None)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("check", help="check a space property")
    p.add_argument("--space", required=True)
    p.add_argument("--prop", required=True)
    p.add_argument("--explain", action="store_true")
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("relative", help="check a relative cover property")
    p.add_argument("--space", required=True)
    p.add_argument("--set", default=None)
    p.add_argument("--symbolic-set", default=None)
    p.add_argument("--prop", required=True)
    p.add_argument("--explain", action="store_true")
    p.set_defaults(fn=_cmd_relative)

    p = sub.add_parser("enumerate", help="enumerate labeled topologies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--method", choices=("auto", "family", "preorder", "both"),
                   default="auto")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="run claims over a universe")
    p.add_argument("--claims", required=True, help="comma list or 'all'")
    p.add_argument("--universe", required=True)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--exhaustive-subsets", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("hunt", help="search for reversal counterexamples")
    p.add_argument("--reverse", default=None, help="edge 'P=>Q' to reverse")
    p.add_argument("--target", default=None, help="tn1-converse | c45-converse")
    p.add_argument("--universe", required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_hunt)

    p = sub.add_parser("catalog", help="named spaces and their expectations")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--check", action="store_true")
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (TopologyError, SkeletonError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
