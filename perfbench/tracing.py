"""In-memory spans around phdinfluence's public calls, recorded from outside.

The tracer swaps each public function listed in ``LAYERS`` for a wrapper that
records a span (name, start, end, parent) and restores the originals on
``uninstall``.  Nothing under ``src/`` is edited: a function is wrapped in
its home module and in every module that binds it by name, so calls the
library makes to it through module globals are seen too.  Only the bindings
listed are wrapped; for example the leave-one-out refits inside ``sris`` and
``influence_report`` resolve ``fit_from_moments`` through ``diagnostics`` and
are deliberately not counted as ``phd`` fits.

``numpy.linalg.eigh`` is wrapped as a counter (calls, and matrices, so that a
batched call over an (n, p, p) stack counts n), never as a span.

Clocks: ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, shared by every
process on the machine, so spans written by traced CLI children line up with
the parent's spans.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import os
import time

#: (span name, home module, function, other modules that bind it by name)
LAYERS = (
    ("ingest.ingest_csv", "ingest", "ingest_csv", ()),
    ("moments.compute_moments", "moments", "compute_moments", ("phd", "diagnostics")),
    ("moments.mahalanobis", "moments", "mahalanobis", ("diagnostics",)),
    ("phd.fit_from_moments", "phd", "fit_from_moments", ()),
    ("diagnostics.influence_report", "diagnostics", "influence_report", ()),
    ("diagnostics.sris", "diagnostics", "sris", ()),
    ("diagnostics.hris", "diagnostics", "hris", ()),
    ("diagnostics.eris", "diagnostics", "eris", ()),
    ("diagnostics.spearman", "diagnostics", "spearman", ()),
    ("diagnostics.write_records_csv", "diagnostics", "write_records_csv", ()),
    ("diagnostics.write_correlations_csv", "diagnostics", "write_correlations_csv", ()),
    ("diagnostics.write_report_json", "diagnostics", "write_report_json", ()),
    ("population.influence_surface", "population", "influence_surface", ()),
)

WRITERS = (
    "diagnostics.write_records_csv",
    "diagnostics.write_correlations_csv",
    "diagnostics.write_report_json",
)


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _after(self, name: str, args, result) -> None:
        """Work counts taken at the layer boundary."""
        if name == "ingest.ingest_csv":
            self.counts["ingest.rows"] += result.n
            self.counts["ingest.bytes_in"] += os.path.getsize(args[0])
        elif name in WRITERS:
            self.counts["serialize.bytes_out"] += os.path.getsize(args[0])
        elif name == "population.influence_surface":
            self.counts["population.cells"] += result.size

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._after(name, args, result)
            return result

        return traced

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        """Wrap every public layer function and numpy.linalg.eigh."""
        import numpy as np

        for name, home, attr, also in LAYERS:
            home_mod = importlib.import_module(f"phdinfluence.{home}")
            traced = self._wrap(name, getattr(home_mod, attr))
            for mod_name in (home, *also):
                self._patch(importlib.import_module(f"phdinfluence.{mod_name}"), attr, traced)

        eigh = np.linalg.eigh

        @functools.wraps(eigh)
        def counted_eigh(a, *args, **kwargs):
            shape = np.shape(a)
            self.counts["linalg.eigh_calls"] += 1
            self.counts["linalg.eigh_matrices"] += int(np.prod(shape[:-2], dtype=np.int64))
            return eigh(a, *args, **kwargs)

        self._patch(np.linalg, "eigh", counted_eigh)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def absorb(self, spans: list[dict], counts: dict) -> None:
        """Add the spans and counts a traced child process wrote, under the
        currently open span."""
        offset = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for rec in spans:
            parent = rec["parent"]
            self.spans.append(dict(rec, parent=top if parent is None else parent + offset))
        self.counts.update(counts)


def totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    Self time is a span's duration minus the time its direct children cover;
    children of one span never overlap, because each traced process is
    single-threaded at the Python level.
    """
    child_time = collections.defaultdict(float)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    out: dict[str, dict] = {}
    for i, rec in enumerate(spans):
        dur = rec["end"] - rec["start"]
        row = out.setdefault(rec["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[i]
    return out
