"""Outside-in tracing of topolab's layers for the benchmark's traced pass.

The wrappers are installed from outside: no topolab source is edited.  Each
wrapped function is rebound in every topolab module that imported it by
name (``verify`` and ``properties`` both bind ``sym_operator``, for
example), and ``FiniteSpace`` methods are patched on the class.  A wrapper
pushes a span on a stack; a span's self time is its duration minus the
time of the spans it caused.  Spans are aggregated per name in memory and
the outermost ones are also kept whole; both are written out when the pass
ends.  Generator functions get no span, because their time lands in the
caller: their yielded items are counted instead.
"""

from __future__ import annotations

import time
from collections import Counter

from topolab import core, filters, properties, skeleton, verify

MODULES = {"core": core, "skeleton": skeleton, "properties": properties,
           "filters": filters, "verify": verify}

FUNCTIONS = (
    ("core", "map_classify"),
    ("core", "product"),
    ("skeleton", "sym_operator"),
    ("skeleton", "sym_classify"),
    ("skeleton", "all_symbolic_sets"),
    ("skeleton", "restrict"),
    ("skeleton", "expand"),
    ("properties", "classified_templates"),
    ("properties", "check_cover"),
    ("properties", "check_cover_relative"),
    ("properties", "check_simple"),
    ("filters", "check_t41"),
    ("filters", "check_t43"),
    ("filters", "pre_theta_accumulates"),
    ("filters", "principal_filter_bases"),
    ("verify", "run_claim"),
    ("verify", "all_topologies"),
)
GENERATORS = (("filters", "antichain_filter_bases"),)
SPACE_METHODS = ("interior", "closure", "preclosure", "classify",
                 "pre_theta_closure", "delta_preclosure", "subspace")
VERDICT_FUNCS = ("properties.check_cover", "properties.check_cover_relative",
                 "properties.check_simple")
HEAVY_CLAIMS = ("T41", "T43", "TN2", "T-IMG", "LP1", "L3", "C-PROD",
                "C-TOPINV", "C-ALPHA", "P41")
MAX_OUTER_SPANS = 10_000  # outermost spans kept whole; all are aggregated
SYMBOLIC_ERRORS = (skeleton.SymbolicIncomplete, skeleton.SymbolicAmbiguity,
                   skeleton.SkeletonOverflow)


def _cover_key(args):
    prop = args[1]
    return args[0], prop if isinstance(prop, str) else prop.name


# argument keys whose distinct values are counted
KEYS = {
    "skeleton.sym_operator": lambda args: args[:3],
    "skeleton.sym_classify": lambda args: args[:2],
    "properties.check_cover": _cover_key,
}


class Tracer:
    """Span stack, per-name aggregates and counters for one traced pass."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.outer: list[tuple[str, float, float]] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {name: set() for name in KEYS}
        self.claim_s: Counter = Counter()
        self.templates: dict = {}
        self.topologies: dict = {}
        self.minima: set | None = None
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        for mod_name, fname in FUNCTIONS:
            wrap = (self._check_filters if fname in ("check_t41", "check_t43")
                    else self._span)
            self._rebind(mod_name, fname,
                         wrap(f"{mod_name}.{fname}",
                              getattr(MODULES[mod_name], fname)))
        for mod_name, fname in GENERATORS:
            self._rebind(mod_name, fname,
                         self._counted(f"{mod_name}.{fname}",
                                       getattr(MODULES[mod_name], fname)))
        for meth in ("__init__",) + SPACE_METHODS:
            label = "init" if meth == "__init__" else meth
            orig = core.FiniteSpace.__dict__[meth]
            self._undo.append((core.FiniteSpace, meth, orig))
            setattr(core.FiniteSpace, meth,
                    self._span(f"core.FiniteSpace.{label}", orig))

    def _rebind(self, mod_name, fname, wrapper):
        orig = getattr(MODULES[mod_name], fname)
        for mod in MODULES.values():
            if getattr(mod, fname, None) is orig:
                self._undo.append((mod, fname, orig))
                setattr(mod, fname, wrapper)

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        stack, outer, clock = self._stack, self.outer, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        key_of = KEYS.get(name)
        keys = self.keys.get(name)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except SYMBOLIC_ERRORS as exc:
                if not getattr(exc, "_perfbench_seen", False):
                    exc._perfbench_seen = True  # count each exception once
                    self.counts["skeleton.raised"] += 1
                if name in VERDICT_FUNCS:
                    self.counts["properties.verdicts.unknown"] += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                elif len(outer) < MAX_OUTER_SPANS:
                    outer.append((name, start, start + dur))
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
            if keys is not None:
                keys.add(key_of(args))
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name + ".yielded"] += 1
                yield item

        return wrapper

    # -- per-function bookkeeping ------------------------------------------

    def _verdict(self, outcome):
        word = {True: "true", False: "false", None: "unknown"}[outcome]
        self.counts["properties.verdicts." + word] += 1

    def _after_properties_check_cover(self, args, kwargs, result, dur):
        self._verdict(result.outcome)

    def _after_properties_check_cover_relative(self, args, kwargs, result, dur):
        self._verdict(result.outcome)

    def _after_properties_check_simple(self, args, kwargs, result, dur):
        self._verdict(result)

    def _after_verify_run_claim(self, args, kwargs, result, dur):
        self.claim_s[result.claim] += dur
        self.counts["verify.run_claim.checked"] += result.checked

    def _after_verify_all_topologies(self, args, kwargs, result, dur):
        self.topologies[args[0]] = len(result)

    def _after_skeleton_all_symbolic_sets(self, args, kwargs, result, dur):
        self.templates[args[0]] = len(result)

    def _after_filters_principal_filter_bases(self, args, kwargs, result, dur):
        self.counts["filters.bases.generated"] += len(result)

    def _after_filters_pre_theta_accumulates(self, args, kwargs, result, dur):
        if self.minima is not None:
            self.minima.add(args[0].minimum())

    def _check_filters(self, name, fn):
        """check_t41/check_t43 memoize accumulation on a base's minimum;
        count the distinct minima each call evaluates."""
        span = self._span(name, fn)

        def wrapper(*args, **kwargs):
            self.minima = set()
            try:
                return span(*args, **kwargs)
            finally:
                self.counts["filters.bases.evaluated"] += len(self.minima)
                self.minima = None

        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        out = {}

        def stat(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        def ratio(num, den):
            return num / den if den else 0.0

        for name, parts in (
            ("skeleton.sym_operator", ("calls", "self_s")),
            ("properties.check_cover_relative", ("calls", "self_s")),
            ("skeleton.sym_classify", ("calls", "self_s")),
            ("properties.classified_templates", ("calls", "s")),
            ("skeleton.all_symbolic_sets", ("calls", "s")),
            ("properties.check_cover", ("calls", "self_s")),
            ("properties.check_simple", ("calls", "self_s")),
            ("skeleton.restrict", ("calls", "s")),
            ("skeleton.expand", ("calls", "s")),
            ("filters.check_t41", ("calls", "s")),
            ("filters.check_t43", ("calls", "s")),
            ("core.map_classify", ("calls", "s")),
            ("core.product", ("calls", "s")),
            ("core.FiniteSpace.init", ("calls", "s")),
        ) + tuple((f"core.FiniteSpace.{m}", ("calls", "self_s"))
                  for m in SPACE_METHODS):
            calls, total, self_s = stat(name)
            for part in parts:
                value = {"calls": calls, "s": total, "self_s": self_s}[part]
                out[f"{name}.{part}"] = (value, "count" if part == "calls" else "s")
        for name, keys in self.keys.items():
            out[f"{name}.distinct_keys"] = (len(keys), "count")
        out["skeleton.sym_operator.useful_ratio"] = (
            ratio(len(self.keys["skeleton.sym_operator"]),
                  stat("skeleton.sym_operator")[0]), "ratio")
        out["skeleton.all_symbolic_sets.templates"] = (
            sum(self.templates.values()), "count")
        for word in ("true", "false", "unknown"):
            out[f"properties.verdicts.{word}"] = (
                self.counts[f"properties.verdicts.{word}"], "count")
        out["skeleton.raised"] = (self.counts["skeleton.raised"], "count")
        out["filters.antichain_filter_bases.yielded"] = (
            self.counts["filters.antichain_filter_bases.yielded"], "count")
        out["filters.pre_theta_accumulates.calls"] = (
            stat("filters.pre_theta_accumulates")[0], "count")
        out["filters.bases.useful_ratio"] = (
            ratio(self.counts["filters.bases.evaluated"],
                  self.counts["filters.bases.generated"]
                  + self.counts["filters.antichain_filter_bases.yielded"]),
            "ratio")
        out["verify.all_topologies.s"] = (stat("verify.all_topologies")[1], "s")
        out["verify.all_topologies.spaces"] = (sum(self.topologies.values()),
                                               "count")
        out["verify.run_claim.self_s"] = (stat("verify.run_claim")[2], "s")
        out["verify.run_claim.checked"] = (
            self.counts["verify.run_claim.checked"], "count")
        for cid in HEAVY_CLAIMS:
            out[f"verify.run_claim.{cid}.s"] = (self.claim_s[cid], "s")
        return out

    def spans(self) -> dict:
        """The in-memory span record: per-name aggregates, outermost spans."""
        return {
            "by_name": {name: {"calls": c, "s": t, "self_s": s}
                        for name, (c, t, s) in sorted(self.stats.items())},
            "outermost": [{"name": n, "start": a, "end": b}
                          for n, a, b in self.outer],
        }

