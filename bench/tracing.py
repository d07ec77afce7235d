"""Spans and counts around the calls into each curvezeta layer.

The layers are the package modules listed in ``LAYERS``.  ``Tracer.install``
wraps every public module-level function a layer defines and rebinds the
wrapper in every curvezeta namespace that holds the function: ``cli`` binds
``slr_zeta``, ``census`` and friends directly, and ``poly_gcd`` is looked up
in ``exact``'s globals from inside ``RationalFunction.__init__``.  Methods of
the package's classes (``Poly.__mul__``, ``RationalFunction.__add__``, ...)
are not wrapped, so their time counts as self time of the calling layer.

A span is ``[name, parent, start, end, tag]``; the tag keys a few calls by
argument (``r3``, ``g4q3``).  Counts are taken at the same boundaries but
outside the timed interval.  The tracer lives in one forked job process and
is never uninstalled.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "fields", "artin", "invariants", "rank2", "group_zeta", "mass", "yoshida", "exact")


def _public_functions(module) -> dict:
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


def _coeff_bits(p) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.coeffs), default=0)


class Tracer:
    """In-memory spans and counters for one job."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._seen_counts: set = set()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "curvezeta" or name.startswith("curvezeta.")]
        for layer in LAYERS:
            module = importlib.import_module(f"curvezeta.{layer}")
            for name, fn in _public_functions(module).items():
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in modules:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        tag = _TAGS.get(name)
        probe = getattr(self, "_probe_" + name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0, tag(*args) if tag else ""]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if probe is not None:
                    probe(args, result)

        return wrapper

    # Counts kept at the layer boundaries, named as the metrics they feed.
    def _probe_exact_poly_gcd(self, args, result) -> None:
        if result is not None and result.degree == 0:
            self.counts["exact.poly_gcd.trivial"] += 1
        bits = max(_coeff_bits(p) for p in args[:2])
        self.counts["exact.max_coeff_bits"] = max(self.counts["exact.max_coeff_bits"], bits)

    def _probe_fields_count_points(self, args, result) -> None:
        model, m = args[0], args[1]
        self.counts["fields.elements"] += model.q**m
        if (model, m) in self._seen_counts:
            self.counts["fields.count_points.repeats"] += 1
        self._seen_counts.add((model, m))

    def _probe_cli_render(self, args, result) -> None:
        if result is not None:
            self.counts["cli.render.bytes"] += sum(len(text.encode()) for text in result.values())

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}


# Span tags from the arguments: the rank r, and the curve's genus and field size.
_TAGS = {
    "group_zeta.period_residue_oracle": lambda c, r, *rest: f"r{r}",
    "group_zeta.slr_zeta": lambda c, r, *rest: f"r{r}|g{c.g}q{c.q}",
    "group_zeta.slr_rh_report": lambda z, *rest, **kwargs: f"r{z.r}|g{z.g}q{z.q}",
}


def layer_metrics(jobs: list[dict]) -> dict[str, float]:
    """Busy, self and call figures summed over the dumped tracers of a round.

    A name's busy time counts only spans with no ancestor of the same name
    (and a layer's only spans with no ancestor in the same layer), so
    recursion is not counted twice.  Self time is a span's duration minus
    its direct children's, summed per layer.  Durations leave out the job's
    calibration pauses and are scaled by its host-speed factor, like job times.
    """
    out: dict[str, float] = defaultdict(float)
    for job in jobs:
        names, spans, pauses = job["names"], job["spans"], job["pauses"]
        durations = [
            (end - start - sum(max(0.0, min(b, end) - max(a, start)) for a, b in pauses)) * job["factor"]
            for _, _, start, end, _ in spans
        ]
        child_time = [0.0] * len(spans)
        for (_, parent, _, _, _), dur in zip(spans, durations):
            if parent >= 0:
                child_time[parent] += dur
        for i, (name_id, parent, _, _, tag) in enumerate(spans):
            name = names[name_id]
            layer = name.split(".", 1)[0]
            dur = durations[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += dur - child_time[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(names[spans[p][0]])
                p = spans[p][1]
            if not any(a.split(".", 1)[0] == layer for a in ancestors):
                out[f"{layer}.busy_s"] += dur
            keys = [name]
            if tag:
                rank, _, shape = tag.partition("|")
                keys.append(f"{name}.{rank}")
                if shape:
                    keys.append(f"{name}.{rank}.{shape}")
            for key in keys:
                out[f"{key}.calls"] += 1
                if name not in ancestors:
                    out[f"{key}.busy_s"] += dur
        for key, value in job["counts"].items():
            if key == "exact.max_coeff_bits":
                out[key] = max(out[key], value)
            else:
                out[key] += value
    gcd_calls = out["exact.poly_gcd.calls"]
    out["exact.poly_gcd.trivial_frac"] = out["exact.poly_gcd.trivial"] / gcd_calls if gcd_calls else 0.0
    count_calls = out["fields.count_points.calls"]
    out["fields.count_points.repeat_frac"] = (
        out["fields.count_points.repeats"] / count_calls if count_calls else 0.0
    )
    return dict(out)
