"""Layer spans recorded around the public functions of each altruns module.

Each wrapped call becomes a span: name, start, end, parent span and request
id, kept in flat arrays in memory and written to one file when the run ends.
A wrapper replaces the function in every altruns module namespace that binds
it (closed_form imports build_us, andre_triangle and partial_fractions by
name, bijection imports andre_triangle, cli imports partial_fractions,
series_coefficients and sturm_real_root_audit), so a nested call always opens
a child of its caller's span and self time lands on the right layer.

Only the layer entry points are wrapped, never the polynomial primitives
they call thousands of times; time in an unwrapped function counts as self
time of the nearest wrapped caller, or of the request (`cli`) when there is
none, which is where argument parsing, validation and rendering sit.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

REQUEST_SPAN = "cli"  # name of the span around one whole request

TRACED = {
    "run_counts": ("andre_triangle", "brute_force_row", "brute_force_row_first_up", "run_polynomial"),
    "genfun": ("build_us", "degree_audit", "ratio_identities_check", "assembly_term_degrees"),
    "exact_algebra": ("partial_fractions", "series_coefficients", "sturm_real_root_audit"),
    "closed_form": ("formula_from_pfd", "psi_from_recurrence", "evaluate_closed_form", "asymptotic_report"),
    "bijection": (
        "image_census",
        "failure_census",
        "phi",
        "reconstruct",
        "reconstruct_trace",
        "permutation_to_settuple",
        "settuple_to_permutation",
    ),
}

# exact work done by one call, read from its arguments
WORK = {
    "run_counts.andre_triangle": lambda a: a["n_max"] - 1,  # rows 2..n_max
    "genfun.build_us": lambda a: a["s_max"],  # levels 1..s_max
    "bijection.image_census": lambda a: a["s"] ** a["n"],  # block tuples
    "bijection.failure_census": lambda a: a["s"] ** a["n"],
}

_COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"), ("request", "i"), ("work", "q"))


class Spans:
    """Flat span arrays; index i is one span. parent is -1 for a request span."""

    def __init__(self, names=(REQUEST_SPAN,)):
        self.names = list(names)
        for col, code in _COLUMNS:
            setattr(self, col, array(code))
        self.stack = []
        self.request_id = -1

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.work.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def __len__(self):
        return len(self.start)

    def write(self, path) -> None:
        """Header line (JSON), then each column's raw array bytes."""
        header = {"names": self.names, "count": len(self), "columns": _COLUMNS}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for col, _ in _COLUMNS:
                getattr(self, col).tofile(f)

    @classmethod
    def read(cls, path) -> "Spans":
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            spans = cls(header["names"])
            for col, code in header["columns"]:
                getattr(spans, col).fromfile(f, header["count"])
        return spans


def _wrap(spans: Spans, name: str, fn):
    nid = spans.name_id(name)
    work = WORK.get(name)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = spans.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.close(idx)
        if work is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            spans.work[idx] = work(bound.arguments)
        return result

    return traced


def install(spans: Spans) -> list:
    """Wrap every function in TRACED wherever an altruns module binds it.
    Returns (module, attribute, original) triples for `uninstall`.
    A function the package no longer defines is skipped and reads zero."""
    modules = [m for name, m in sys.modules.items() if name == "altruns" or name.startswith("altruns.")]
    replaced = []
    for module, names in TRACED.items():
        home = sys.modules[f"altruns.{module}"]
        for fname in names:
            fn = getattr(home, fname, None)
            if fn is None:
                continue
            wrapper = _wrap(spans, f"{module}.{fname}", fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        replaced.append((m, attr, fn))
    return replaced


def uninstall(replaced: list) -> None:
    for m, attr, fn in replaced:
        setattr(m, attr, fn)


def self_times(spans: Spans) -> list:
    """Per span: its duration minus the durations of its direct children.
    Calls are nested and single-threaded, so children never overlap."""
    own = [e - s for s, e in zip(spans.start, spans.end)]
    for i, p in enumerate(spans.parent):
        if p >= 0:
            own[p] -= spans.end[i] - spans.start[i]
    return own


def layer_totals(spans: Spans) -> dict:
    """{name: {"calls", "self_s", "work"}} summed over all spans of that name."""
    out = {name: {"calls": 0, "self_s": 0.0, "work": 0} for name in spans.names}
    for nid, own, work in zip(spans.name, self_times(spans), spans.work):
        entry = out[spans.names[nid]]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["work"] += work
    return out
