"""Traced runs: spans around calls into colonlab's public functions, from outside.

`Tracer.install()` replaces each listed function or method with a wrapper that
records one span (name, start, end, parent span) per call and returns the
result unchanged. A function is replaced in every colonlab module namespace
that holds it (for example `normal_form` in `groebner`, `ideal_ops`, `oracle`
and `cli`), so internal calls are seen too. Spans live in flat arrays in memory
and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute path). Several targets may share a span name.
TARGETS = (
    ("fields.inv", "fields", "PrimeField.inv"),
    ("fields.inv", "fields", "RationalField.inv"),
    ("poly.mul", "poly", "Polynomial.__mul__"),
    ("poly.mul_term", "poly", "Polynomial.mul_term"),
    ("poly.sub", "poly", "Polynomial.__sub__"),
    ("parsing.parse", "parsing", "parse_polynomial"),
    ("groebner.normal_form", "groebner", "normal_form"),
    ("groebner.s_polynomial", "groebner", "s_polynomial"),
    ("groebner.buchberger", "groebner", "buchberger"),
    ("groebner.reduce_gb", "groebner", "reduce_gb"),
    ("groebner.groebner_basis", "groebner", "Ideal.groebner_basis"),
    ("ideal_ops.colon", "ideal_ops", "colon"),
    ("ideal_ops.ideal_intersect", "ideal_ops", "ideal_intersect"),
    ("ideal_ops.make_quotient", "ideal_ops", "make_quotient"),
    ("hilbert.image_power_chain", "hilbert", "image_power_chain"),
    ("hilbert.filtration_hilbert", "hilbert", "filtration_hilbert"),
    ("hilbert.graded_hilbert", "hilbert", "graded_hilbert"),
    ("oracle.build_model", "oracle", "build_model"),
    ("oracle.subspace_of_ideal", "oracle", "subspace_of_ideal"),
    ("oracle.oracle_power", "oracle", "oracle_power"),
    ("oracle.annihilator", "oracle", "annihilator"),
    ("oracle.oracle_filtration_hilbert", "oracle", "oracle_filtration_hilbert"),
    ("theorems.verify_macaulay_ladder", "theorems", "verify_macaulay_ladder"),
    ("theorems.check_delta_identity", "theorems", "check_delta_identity"),
    ("theorems.verify_main_equivalence", "theorems", "verify_main_equivalence"),
    ("theorems.verify_corollary", "theorems", "verify_corollary"),
    ("theorems.storch_counterexample", "theorems", "storch_counterexample"),
    ("cli.main", "cli", "main"),
)

# "bench.instance" is the root span of one instance, recorded by the caller;
# every span of an instance descends from it.
SPAN_NAMES = ("bench.instance",) + tuple(dict.fromkeys(name for name, _, _ in TARGETS))


def _rungs(report):
    return len(report.rungs)


# Counters read off return values: (counter, span name, tally of one result).
TALLIES = (
    ("groebner.normal_form.nonzero", "groebner.normal_form", lambda r: 0 if r.is_zero else 1),
    ("oracle.model_dim", "oracle.build_model", lambda r: r.dim),
    ("theorems.rungs", "theorems.verify_macaulay_ladder", _rungs),
    ("theorems.rungs", "theorems.verify_main_equivalence", _rungs),
    ("theorems.rungs", "theorems.verify_corollary", _rungs),
)


class Tracer:
    def __init__(self):
        self.ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.tallies = {counter: 0 for counter, _, _ in TALLIES}

    def wrap(self, span_name, fn):
        """`fn` recording one span named `span_name` per call."""
        span_id = SPAN_NAMES.index(span_name)
        tallies = [(counter, tally) for counter, span, tally in TALLIES if span == span_name]
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self.stack
        totals = self.tallies
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(span_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            for counter, tally in tallies:
                totals[counter] += tally(result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every target. Call once per process, after colonlab is imported."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "colonlab" or n.startswith("colonlab.")]
        for span_name, module_name, path in TARGETS:
            owner = importlib.import_module(f"colonlab.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original)
            if classes:
                setattr(owner, attr, wrapper)
                continue
            for namespace in namespaces:
                for name in [k for k, v in vars(namespace).items() if v is original]:
                    setattr(namespace, name, wrapper)

    # -- analysis -------------------------------------------------------------

    def metrics(self, wall_s: float, verdicts: int) -> dict:
        """Per-layer metrics over all spans recorded so far.

        `wall_s` is the timed wall time of the traced instances and `verdicts`
        their number; both come from the caller's own clock.
        """
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        n = len(ids)
        names = SPAN_NAMES
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        own = [ends[i] - starts[i] for i in range(n)]
        for i in range(n):
            p = parents[i]
            if p >= 0:
                own[p] -= ends[i] - starts[i]
        colon = names.index("ideal_ops.colon")
        intersect = names.index("ideal_ops.ideal_intersect")
        gb = names.index("groebner.groebner_basis")
        buch = names.index("groebner.buchberger")
        under_colon = bytearray(n)
        under_oracle = bytearray(n)
        is_oracle = [name.startswith("oracle.") for name in names]
        intersect_in_colon = 0
        gb_misses = 0
        colon_wall = 0.0
        oracle_wall = 0.0
        for i in range(n):
            sid = ids[i]
            calls[sid] += 1
            self_s[sid] += own[i]
            p = parents[i]
            if p >= 0:
                under_colon[i] = under_colon[p] or ids[p] == colon
                under_oracle[i] = under_oracle[p] or is_oracle[ids[p]]
                if sid == buch and ids[p] == gb:
                    gb_misses += 1
            if sid == intersect and under_colon[i]:
                intersect_in_colon += 1
            if sid == colon and not under_colon[i]:
                colon_wall += ends[i] - starts[i]
            if is_oracle[sid] and not under_oracle[i]:
                oracle_wall += ends[i] - starts[i]

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for sid, name in enumerate(names):
            out[f"{name}.calls"] = (calls[sid], "count")
            out[f"{name}.self_s"] = (self_s[sid], "s")
        nf = names.index("groebner.normal_form")
        out["groebner.normal_form.nonzero_ratio"] = (
            ratio(self.tallies["groebner.normal_form.nonzero"], calls[nf]),
            "ratio",
        )
        out["groebner.gb_cache.miss_ratio"] = (ratio(gb_misses, calls[gb]), "ratio")
        out["ideal_ops.intersect_per_colon"] = (ratio(intersect_in_colon, calls[colon]), "ratio")
        out["ideal_ops.colon.wall_share"] = (ratio(colon_wall, wall_s), "ratio")
        out["oracle.wall_share"] = (ratio(oracle_wall, wall_s), "ratio")
        out["oracle.model_dim"] = (self.tallies["oracle.model_dim"], "count")
        out["theorems.rungs"] = (self.tallies["theorems.rungs"], "count")
        out["trace.spans"] = (n, "count")
        out["trace.verdicts_per_s"] = (ratio(verdicts, wall_s), "1/s")
        return out

    def write(self, path, header: dict) -> None:
        """One JSON header line, then the raw id, parent, start and end arrays."""
        arrays = (self.ids, self.parents, self.starts, self.ends)
        header = dict(
            header,
            span_names=list(SPAN_NAMES),
            spans=len(self.ids),
            arrays=[[a.typecode, a.itemsize] for a in arrays],
            byteorder=sys.byteorder,
        )
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(handle)


def read_spans(path):
    """Inverse of `Tracer.write`: (header, [(name, parent, start, end), ...])."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["spans"]
        columns = []
        for typecode, _ in header["arrays"]:
            a = array(typecode)
            a.fromfile(handle, n)
            if header["byteorder"] != sys.byteorder:
                a.byteswap()
            columns.append(a)
    names = header["span_names"]
    ids, parents, starts, ends = columns
    return header, [(names[ids[i]], parents[i], starts[i], ends[i]) for i in range(n)]


# Metrics that must repeat exactly between two traced runs of one seed.
def deterministic(metrics: dict) -> dict:
    return {
        k: v[0]
        for k, v in metrics.items()
        if k.endswith((".calls", "_ratio", ".intersect_per_colon", ".model_dim", ".rungs", ".spans"))
    }
