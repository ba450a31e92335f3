"""Outside-in tracing of the package's modules, from the benchmark's own code.

The tracer wraps a fixed list of functions in every package module that
binds them (`from .x import f` copies the binding, and `cli` also keeps
report builders in a dispatch table), records one span per call in memory,
and puts the originals back when it is closed.  Spans are written out once,
when the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

PACKAGE = "seifert_torsion"

# module -> functions traced in it; the keys are the layers of the trace
TRACED = {
    "cli": (
        "build_parser",
        "invariant_report",
        "homology_report",
        "torsion_report",
        "partition_report",
        "_read_cs_file",
        "_json_line",
        "_json_block",
    ),
    "parsing": ("parse_seifert",),
    "seifert": (
        "validate_seifert",
        "chern_number",
        "torsion_order_integer",
        "relation_matrix",
    ),
    "homology": (
        "smith_normal_form",
        "first_homology",
        "torsion_h2_order",
        "moduli_description",
    ),
    "dedekind": (
        "dedekind_sum_exact",
        "dedekind_sum_recursive",
        "dedekind_sum_float",
        "adiabatic_eta",
    ),
    "zetafunc": ("hurwitz_zeta",),
    "torsion": ("k0_function", "k0_deriv0", "torsion_prefactor"),
    "partition": (
        "phase_factor",
        "partition_magnitude",
        "zbar_partition_value",
        "z_partition_value",
    ),
}

FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in a fixed order."""
    names = []
    for fid in FUNCTIONS:
        names.append((f"{fid}.calls_per_item", "calls/item"))
        names.append((f"{fid}.self_us_per_call", "us/call"))
    names += [(f"{layer}.self_share", "share") for layer in TRACED]
    names += [
        ("dedekind.cotangent_cache.hit_ratio", "ratio"),
        ("homology.smith_normal_form.max_entry_bits", "bits"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


class Tracer:
    """Wraps the traced functions while open; spans stay in memory."""

    def __init__(self):
        self.item = 0
        self.kinds: list[str] = []
        self.spans: list = []
        self.max_entry_bits = 0
        self._snf_results: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def start_items(self, kinds) -> int:
        """Label the next items; later spans belong to the first of them."""
        self.item = len(self.kinds)
        self.kinds.extend(kinds)
        return self.item

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for fid in FUNCTIONS:
            layer, name = fid.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), name)
            post = self._snf_results.append if fid == "homology.smith_normal_form" else None
            wrappers[id(original)] = (original, self._wrap(fid, original, post))

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if swap(value) is not value:
                    self._undo.append((vars(module), attr, value))
                    setattr(module, attr, swap(value))
                elif isinstance(value, dict):
                    # dispatch tables such as cli._DATA_COMMANDS
                    for key, entry in list(value.items()):
                        if isinstance(entry, tuple):
                            swapped = tuple(swap(e) for e in entry)
                            if swapped != entry:
                                self._undo.append((value, key, entry))
                                value[key] = swapped
        return self

    def __exit__(self, *exc) -> None:
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo.clear()

    def _wrap(self, fid: str, fn, post):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent, tracer.item)
            if post is not None:
                post(result)
            return result

        return traced

    def scan_snf_results(self) -> None:
        """Fold the kept SNF results into max_entry_bits.  Called between
        rounds, outside the spans, so the scan's cost is booked to no layer."""
        for snf in self._snf_results:
            bits = max(abs(e).bit_length() for m in (snf.u, snf.d, snf.v) for e in m.entries)
            self.max_entry_bits = max(self.max_entry_bits, bits)
        self._snf_results.clear()

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def write_spans(self, path: Path) -> None:
        with path.open("w") as out:
            out.write("index,name,start_s,end_s,parent,item,kind\n")
            for i, (fid, start, end, parent, item) in enumerate(self.spans):
                kind = self.kinds[item] if item < len(self.kinds) else ""
                out.write(f"{i},{fid},{start:.9f},{end:.9f},{parent},{item},{kind}\n")


def per_layer_metrics(
    tracer: Tracer,
    items: int,
    traced_wall: float,
    overhead_ratio: float,
    cache_hits: int,
    cache_misses: int,
) -> dict:
    """Every per-layer metric of a traced run, zero where a layer never ran."""
    calls: Counter = Counter()
    self_time: Counter = Counter()
    for (fid, *_), own in zip(tracer.spans, tracer.self_times()):
        calls[fid] += 1
        self_time[fid] += own
    values = {}
    for fid in FUNCTIONS:
        values[f"{fid}.calls_per_item"] = calls[fid] / items
        values[f"{fid}.self_us_per_call"] = (
            1e6 * self_time[fid] / calls[fid] if calls[fid] else 0.0
        )
    for layer, names in TRACED.items():
        own = sum(self_time[f"{layer}.{name}"] for name in names)
        values[f"{layer}.self_share"] = own / traced_wall
    lookups = cache_hits + cache_misses
    values["dedekind.cotangent_cache.hit_ratio"] = cache_hits / lookups if lookups else 0.0
    values["homology.smith_normal_form.max_entry_bits"] = tracer.max_entry_bits
    values["trace.overhead_ratio"] = overhead_ratio
    units = dict(per_layer_metric_names())
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def calls_by_kind(tracer: Tracer) -> dict:
    """Calls per item of each traced function, split by the items' kinds."""
    items = Counter(tracer.kinds)
    calls: Counter = Counter()
    for fid, _, _, _, item in tracer.spans:
        if item < len(tracer.kinds):
            calls[tracer.kinds[item], fid] += 1
    return {
        kind: {fid: calls[kind, fid] / count for fid in FUNCTIONS if calls[kind, fid]}
        for kind, count in sorted(items.items())
    }
