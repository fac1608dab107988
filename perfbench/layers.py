"""Spans around the public functions of each layer, recorded from outside the
program, and the per-layer metrics derived from them.

``install`` wraps each function in LAYERS and rebinds it wherever it is
reachable by name: in its own module, in every module that imported it by
name (``denominators`` imports ``f_sum_quotient``, ``theta`` imports
``weyl_character``, the workloads import ``verify``), and on the class for
methods.  A span records its name, start, end, the span that was open when it
began, the check it belongs to, and the counts listed for it.  Spans stay in
memory until ``write`` puts them in a file, one JSON array per line;
``metrics`` derives the per-layer table from that file.

Counts are computed after a span has ended, and the time they take is left
out of every span's self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

CLOCK = time.perf_counter


# -- counts recorded at the boundary ------------------------------------------


def _terms_out(args, kwargs, result):
    return {"terms": len(result.terms)}


def _lhs_key(args, kwargs, result):
    system, kind, threshold4 = args
    d = system.datum
    return {"key": f"{d.family}({d.m},{d.n})|{system.order!r}|{system.tiebreak}|{kind}|{threshold4}"}


def _group_size(args, kwargs, result):
    return {"elements": len(args[1])}


def _closure_size(args, kwargs, result):
    return {"elements": len(result)}


def _datum_key(args, kwargs, result):
    d = args[0]
    return {"key": f"{d.family}({d.m},{d.n})"}


def _perturbed(args, kwargs, result):
    return {"perturbed": int(result is not args[0])}


def _compared(args, kwargs, result):
    a, b = args[0], args[1]
    t = a.window_threshold(b)
    ht4 = a.system.ht4
    compared = sum(1 for w in set(a.terms) | set(b.terms) if t is None or ht4(w) >= t)
    return {"compared": compared, "mismatches": len(result)}


# (module, attribute or "Class.method", span name, counts)
LAYERS = [
    ("superdenom.series", "product_expansion", "series.product_expansion", _terms_out),
    ("superdenom.series", "CharSeries.__add__", "series.add", _terms_out),
    ("superdenom.series", "CharSeries.__mul__", "series.mul", None),
    ("superdenom.series", "CharSeries.mismatches", "series.mismatches", _compared),
    ("superdenom.series", "f_sum_quotient", "series.f_sum_quotient", _group_size),
    ("superdenom.series", "weyl_character", "series.weyl_character", _terms_out),
    ("superdenom.denominators", "lhs", "denominators.lhs", _lhs_key),
    ("superdenom.denominators", "choose_expansion_system", "denominators.choose_expansion_system", _perturbed),
    ("superdenom.denominators", "verify", "denominators.verify", None),
    ("superdenom.weyl", "enumerate_closure", "weyl.enumerate_closure", _closure_size),
    ("superdenom.weyl", "full_weyl", "weyl.full_weyl", _datum_key),
    ("superdenom.weyl", "sharp_subgroup", "weyl.sharp_subgroup", None),
    ("superdenom.theta", "DualPair.l2_character", "theta.l2_character", None),
    ("superdenom.theta", "DualPair.enright_character", "theta.enright_character", None),
    ("superdenom.theta", "DualPair.enright", "theta.enright", None),
    ("superdenom.theta", "DualPair.verify_duality", "theta.verify_duality", None),
    ("superdenom.theta", "D1Pair.verify_duality", "theta.verify_duality", None),
    ("superdenom.diagrams", "enumerate_diagrams", "diagrams.enumerate_diagrams", None),
    ("superdenom.rootdata", "positive_system", "rootdata.positive_system", None),
]

# The spans each workload must record at least once; a traced run in which
# one of them records no call fails its coverage check.
USES = {
    "grid": [
        "series.product_expansion", "series.add", "series.mismatches", "series.f_sum_quotient",
        "denominators.lhs", "denominators.choose_expansion_system", "denominators.verify",
        "weyl.enumerate_closure", "weyl.full_weyl", "weyl.sharp_subgroup",
        "diagrams.enumerate_diagrams", "rootdata.positive_system",
    ],
    "frontier": [
        "series.product_expansion", "series.add", "series.mismatches", "series.f_sum_quotient",
        "denominators.lhs", "denominators.choose_expansion_system", "denominators.verify",
        "weyl.enumerate_closure", "weyl.full_weyl",
        "diagrams.enumerate_diagrams", "rootdata.positive_system",
    ],
    "theta": [
        "series.product_expansion", "series.add", "series.mul", "series.mismatches",
        "series.f_sum_quotient", "series.weyl_character", "weyl.enumerate_closure",
        "theta.l2_character", "theta.enright_character", "theta.enright", "theta.verify_duality",
        "rootdata.positive_system",
    ],
}

# Per-layer metrics: (metric, span name, statistic, unit).
METRICS = [
    ("series.product_expansion.calls", "series.product_expansion", "calls", "count"),
    ("series.product_expansion.self_s", "series.product_expansion", "self_s", "s"),
    ("series.product_expansion.terms_out", "series.product_expansion", "sum:terms", "count"),
    ("series.product_expansion.height_zero_errors", "series.product_expansion", "errors:ValueError", "count"),
    ("denominators.lhs.calls", "denominators.lhs", "calls", "count"),
    ("denominators.lhs.distinct_inputs", "denominators.lhs", "distinct:key", "count"),
    ("denominators.lhs.distinct_share", "denominators.lhs", "distinct_share:key", "share"),
    ("series.add.calls", "series.add", "calls", "count"),
    ("series.add.self_s", "series.add", "self_s", "s"),
    ("series.add.max_terms", "series.add", "max:terms", "count"),
    ("series.f_sum_quotient.calls", "series.f_sum_quotient", "calls", "count"),
    ("series.f_sum_quotient.self_s", "series.f_sum_quotient", "self_s", "s"),
    ("series.f_sum_quotient.elements", "series.f_sum_quotient", "sum:elements", "count"),
    ("weyl.enumerate_closure.calls", "weyl.enumerate_closure", "calls", "count"),
    ("weyl.enumerate_closure.self_s", "weyl.enumerate_closure", "self_s", "s"),
    ("weyl.enumerate_closure.elements", "weyl.enumerate_closure", "sum:elements", "count"),
    ("weyl.full_weyl.calls", "weyl.full_weyl", "calls", "count"),
    ("weyl.full_weyl.distinct_data", "weyl.full_weyl", "distinct:key", "count"),
    ("weyl.sharp_subgroup.calls", "weyl.sharp_subgroup", "calls", "count"),
    ("denominators.choose_expansion_system.calls", "denominators.choose_expansion_system", "calls", "count"),
    ("denominators.choose_expansion_system.self_s", "denominators.choose_expansion_system", "self_s", "s"),
    ("denominators.choose_expansion_system.perturbed", "denominators.choose_expansion_system", "sum:perturbed", "count"),
    ("denominators.verify.self_s", "denominators.verify", "self_s", "s"),
    ("series.weyl_character.calls", "series.weyl_character", "calls", "count"),
    ("series.weyl_character.self_s", "series.weyl_character", "self_s", "s"),
    ("series.weyl_character.terms_out", "series.weyl_character", "sum:terms", "count"),
    ("series.mul.calls", "series.mul", "calls", "count"),
    ("series.mul.self_s", "series.mul", "self_s", "s"),
    ("theta.l2_character.self_s", "theta.l2_character", "self_s", "s"),
    ("theta.enright_character.self_s", "theta.enright_character", "self_s", "s"),
    ("theta.enright.self_s", "theta.enright", "self_s", "s"),
    ("theta.verify_duality.self_s", "theta.verify_duality", "self_s", "s"),
    ("series.mismatches.calls", "series.mismatches", "calls", "count"),
    ("series.mismatches.self_s", "series.mismatches", "self_s", "s"),
    ("series.mismatches.terms_compared", "series.mismatches", "sum:compared", "count"),
    ("series.mismatches.mismatch_count", "series.mismatches", "sum:mismatches", "count"),
    ("diagrams.enumerate_diagrams.self_s", "diagrams.enumerate_diagrams", "self_s", "s"),
    ("rootdata.positive_system.self_s", "rootdata.positive_system", "self_s", "s"),
]


class Tracer:
    """In-memory span recorder.  ``check`` is the index of the check that is
    running, or None during set-up."""

    def __init__(self):
        # [name, start, end, parent index, check, counts, end of counting]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.check: int | None = None

    def wrap(self, name: str, fn, counts):
        spans, open_, clock = self.spans, self._open, CLOCK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.check, None, 0.0]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = rec[6] = clock()
                rec[5] = {"error": type(exc).__name__}
                raise
            finally:
                open_.pop()
            rec[2] = clock()
            if counts is not None:
                rec[5] = counts(args, kwargs, result)
            rec[6] = clock()
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever it is bound by name."""
        for module_name, attr, name, counts in LAYERS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, vars(cls)[meth], counts))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, counts)
            for mod in list(sys.modules.values()):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


def read_spans(path: str) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the intervals of its direct children,
    counting a child until its counts were recorded."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[6] - rec[1]
    return own


def metrics(spans: list[list], time_scale: float) -> dict[str, float]:
    """The METRICS of one traced pass, its times multiplied by time_scale."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(i)
    out = {}
    for metric, name, stat, _unit in METRICS:
        idx = by_name.get(name, [])
        counts = [spans[i][5] or {} for i in idx]
        kind, _, field = stat.partition(":")
        if kind == "calls":
            value = len(idx)
        elif kind == "self_s":
            value = time_scale * sum(own[i] for i in idx)
        elif kind == "sum":
            value = sum(c.get(field, 0) for c in counts)
        elif kind == "max":
            value = max((c.get(field, 0) for c in counts), default=0)
        elif kind == "errors":
            value = sum(1 for c in counts if c.get("error") == field)
        elif kind == "distinct":
            value = len({c[field] for c in counts if field in c})
        else:  # distinct_share: useful (distinct) calls over attempted calls
            value = len({c[field] for c in counts if field in c}) / len(idx) if idx else 0.0
        out[metric] = value
    return out


def self_seconds_by_span(spans: list[list]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for i, rec in enumerate(spans):
        out[rec[0]] = out.get(rec[0], 0.0) + own[i]
    return out


def compared_by_check(spans: list[list]) -> dict[int, int]:
    """Terms compared by series.mismatches, summed per check."""
    out: dict[int, int] = {}
    for rec in spans:
        if rec[0] == "series.mismatches" and rec[4] is not None:
            out[rec[4]] = out.get(rec[4], 0) + (rec[5] or {}).get("compared", 0)
    return out


def uncovered(workload: str, spans: list[list]) -> list[str]:
    seen = {rec[0] for rec in spans}
    return [name for name in USES[workload] if name not in seen]


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
