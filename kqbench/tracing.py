"""Outside-in tracing of the `kq` layers.

The tracer wraps public callables of `kq.moduli`, `kq.quiver`,
`kq.fibers`, `kq.linalg` and `kq.tableaux` while it is active, and puts
every original back when it exits.  A function is replaced in every `kq`
namespace that bound it, since `from ... import` makes copies (for
example `kq.moduli.f_matrix` and `kq.quiver.hom_dim`); a method is
replaced on its class.  Spans are aggregated by (parent span, name) as
call count, total time and self time, where self time is total time
minus the time spent in wrapped children.  No wrapped callable calls
itself, directly or through another wrapped callable, so totals per name
count every interval once.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, span name)
FUNCTIONS = (
    ("kq.moduli", "reconstruct", "moduli.reconstruct"),
    ("kq.moduli", "check_relations", "moduli.check_relations"),
    ("kq.moduli", "evaluate_relation", "moduli.evaluate_relation"),
    ("kq.moduli", "check_stability", "moduli.check_stability"),
    ("kq.moduli", "scramble", "moduli.scramble"),
    ("kq.moduli", "embed", "moduli.embed"),
    ("kq.moduli", "random_gauge", "moduli.random_gauge"),
    ("kq.quiver", "relation_sets", "quiver.relation_sets"),
    ("kq.quiver", "kernel_report", "quiver.kernel_report"),
    ("kq.quiver", "enumerate_paths", "quiver.enumerate_paths"),
    ("kq.fibers", "surjectivity_rank", "fibers.surjectivity_rank"),
    ("kq.fibers", "f_matrix", "fibers.fg_matrix"),
    ("kq.fibers", "g_matrix", "fibers.fg_matrix"),
    ("kq.tableaux", "hom_dim", "tableaux.hom_dim"),
)

# (module, class, method, span name)
METHODS = (
    ("kq.linalg", "RatMatrix", "__mul__", "linalg.mul"),
    ("kq.linalg", "RatMatrix", "__add__", "linalg.add"),
    ("kq.linalg", "RatMatrix", "scale", "linalg.scale"),
    ("kq.linalg", "RatMatrix", "rank", "linalg.rank"),
    ("kq.linalg", "RatMatrix", "invert", "linalg.invert"),
    ("kq.quiver", "SparseEchelon", "insert", "quiver.echelon_insert"),
)

# Every per-layer metric with its unit, in report order.  Times are in
# seconds and vary from run to run; every other unit is a count of work
# done, which repeats exactly for a given workload and seed.
PER_LAYER = {
    "moduli.reconstruct_s": "s",
    "moduli.sweep_s": "s",
    "moduli.check_relations_s": "s",
    "moduli.evaluate_relation_calls": "count",
    "moduli.check_stability_s": "s",
    "moduli.scramble_s": "s",
    "moduli.embed_s": "s",
    "moduli.random_gauge_s": "s",
    "quiver.relation_sets_s": "s",
    "quiver.relation_sets_calls": "count",
    "quiver.kernel_report_s": "s",
    "quiver.kernel_report_self_s": "s",
    "quiver.enumerate_paths_s": "s",
    "quiver.paths_enumerated": "count",
    "quiver.echelon_inserts": "count",
    "quiver.echelon_independent": "count",
    "quiver.echelon_useful_ratio": "ratio",
    "quiver.echelon_insert_s": "s",
    "fibers.surjectivity_rank_s": "s",
    "fibers.surjectivity_rank_self_s": "s",
    "fibers.fg_matrix_calls": "count",
    "fibers.fg_matrix_s": "s",
    "fibers.rank_deficit": "count",
    "linalg.mul_calls": "count",
    "linalg.mul_s": "s",
    "linalg.add_calls": "count",
    "linalg.add_s": "s",
    "linalg.scale_calls": "count",
    "linalg.scale_s": "s",
    "linalg.rank_calls": "count",
    "linalg.rank_s": "s",
    "linalg.invert_calls": "count",
    "linalg.invert_s": "s",
    "tableaux.hom_dim_s": "s",
    "tableaux.hom_dim_calls": "count",
    "trace.overhead_s": "s",
}


def _kq_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "kq" or name.startswith("kq.")]


class Tracer:
    """Context manager that installs the wrappers on entry and restores
    every wrapped attribute on exit."""

    def __init__(self):
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = [["", 0.0]]  # [span name, time in wrapped children]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_result=None):
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _hooks(self) -> dict:
        counts = self.counts

        def paths(result):
            counts["quiver.paths_enumerated"] += len(result)

        def insert(result):
            counts["quiver.echelon_independent"] += bool(result)

        def surjectivity(result):
            counts["fibers.rank_deficit"] += result["hom_dim"] - result["rank"]

        return {
            "quiver.enumerate_paths": paths,
            "quiver.echelon_insert": insert,
            "fibers.surjectivity_rank": surjectivity,
        }

    def __enter__(self) -> "Tracer":
        hooks = self._hooks()
        modules = _kq_modules()
        try:
            for mod_name, attr, span in FUNCTIONS:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(span, original, hooks.get(span))
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, bound, wrapper)
            for mod_name, cls_name, attr, span in METHODS:
                cls = getattr(sys.modules[mod_name], cls_name)
                self._patch(cls, attr, self._wrap(span, cls.__dict__[attr], hooks.get(span)))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def total(self, name: str, parent: str | None = None) -> float:
        return sum((e[1] for (p, n), e in self.edges.items() if n == name and parent in (None, p)), 0.0)

    def self_time(self, name: str) -> float:
        return sum((e[2] for (_, n), e in self.edges.items() if n == name), 0.0)

    def spans(self) -> list[dict]:
        """The aggregated call tree, one record per (parent, name) edge."""
        return [
            {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
            for (p, n), (c, t, s) in sorted(self.edges.items())
        ]

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s, which needs an
        untraced run to compare with."""
        t, c = self.total, self.calls
        reconstruct = "moduli.reconstruct"
        inserts = c("quiver.echelon_insert")
        independent = self.counts["quiver.echelon_independent"]
        out = {
            "moduli.reconstruct_s": t(reconstruct),
            # the normalisation sweep: reconstruct outside its two checks
            "moduli.sweep_s": t(reconstruct)
            - t("moduli.check_relations", reconstruct)
            - t("moduli.check_stability", reconstruct),
            "moduli.check_relations_s": t("moduli.check_relations"),
            "moduli.evaluate_relation_calls": c("moduli.evaluate_relation"),
            "moduli.check_stability_s": t("moduli.check_stability"),
            "moduli.scramble_s": t("moduli.scramble"),
            "moduli.embed_s": t("moduli.embed"),
            "moduli.random_gauge_s": t("moduli.random_gauge"),
            "quiver.relation_sets_s": t("quiver.relation_sets"),
            "quiver.relation_sets_calls": c("quiver.relation_sets"),
            "quiver.kernel_report_s": t("quiver.kernel_report"),
            "quiver.kernel_report_self_s": self.self_time("quiver.kernel_report"),
            "quiver.enumerate_paths_s": t("quiver.enumerate_paths"),
            "quiver.paths_enumerated": self.counts["quiver.paths_enumerated"],
            "quiver.echelon_inserts": inserts,
            "quiver.echelon_independent": independent,
            "quiver.echelon_useful_ratio": independent / inserts if inserts else 0.0,
            "quiver.echelon_insert_s": t("quiver.echelon_insert"),
            "fibers.surjectivity_rank_s": t("fibers.surjectivity_rank"),
            "fibers.surjectivity_rank_self_s": self.self_time("fibers.surjectivity_rank"),
            "fibers.fg_matrix_calls": c("fibers.fg_matrix"),
            "fibers.fg_matrix_s": t("fibers.fg_matrix"),
            "fibers.rank_deficit": self.counts["fibers.rank_deficit"],
        }
        for op in ("mul", "add", "scale", "rank", "invert"):
            out[f"linalg.{op}_calls"] = c(f"linalg.{op}")
            out[f"linalg.{op}_s"] = t(f"linalg.{op}")
        out["tableaux.hom_dim_s"] = t("tableaux.hom_dim")
        out["tableaux.hom_dim_calls"] = c("tableaux.hom_dim")
        return out
