"""Span tracing of asmlab's public functions, done from outside the package.

`Tracer.install()` replaces every module attribute of the loaded asmlab
modules that is one of the traced functions, including the names re-bound
by ``from .x import y``, so calls between modules and recursive calls (which
look the name up in their module's globals) go through the wrapper.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory; `write()` dumps them when the run ends.  Self time is computed as
spans close: a span's duration minus the durations of its direct children.
Direct children of one span never overlap in this single-threaded program, so
that is the time the children cover.  The wrapper's own bookkeeping is charged
to no span, so it shows only as the difference between a traced and an
untraced run's wall time.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Every traced function, as "module.function" within asmlab.
TRACED = (
    "asm.rank_matrix",
    "ideals.init_ideal",
    "ideals.minimal_primes",
    "ideals.perm_set_via_primes",
    "complexes.sr_complex_from_ideal",
    "complexes.km_vertex_decomposable",
    "complexes.link_facets",
    "homology.is_cohen_macaulay",
    "homology.complex_is_cm",
    "homology.chain_complex",
    "homology.sparse_rank",
    "enumeration.enumerate_asms",
    "enumeration.tabulate",
    "enumeration.analyze_asm",
)

# Counts taken from arguments and results, reported as 0 when never taken.
COUNTS = (
    "enumeration.enumerate_asms.yielded",
    "ideals.minimal_primes.primes_out",
    "complexes.sr_complex_from_ideal.facets_max",
    "homology.is_cohen_macaulay.cm_true",
    "homology.is_cohen_macaulay.decided_without_rank",
    "homology.chain_complex.faces",
    "homology.sparse_rank.rows",
    "homology.sparse_rank.nnz",
)

# lru_cache'd functions whose cache_info() gives hits and misses.
LRU = {
    "asm.rank_matrix": "asm.rank_matrix",
    "ideals.init_ideal": "ideals.init_ideal",
    "complexes.km_vd_memo": "complexes._km_vd_facets",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patched: list[tuple] = []
        self._lru_start: dict[str, tuple] = {}

    # -- recording ------------------------------------------------------------

    def _open(self, nid: int) -> list:
        stack = self._stack
        frame = [len(self.start), 0.0]
        self.name_id.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        stack.append(frame)
        self.start.append(perf_counter())
        return frame

    def _close(self, frame: list, name: str, entered: float) -> None:
        t1 = perf_counter()
        idx, covered = frame
        stack = self._stack
        stack.pop()
        self.end[idx] = t1
        self.self_s[name] += t1 - self.start[idx] - covered
        self.calls[name] += 1
        if stack:
            # the parent is charged neither this span nor its bookkeeping
            stack[-1][1] += perf_counter() - entered

    def _wrap(self, name: str, fn, observe=None):
        nid = self._intern(name)
        before, after = observe or (None, None)

        def traced(*args, **kwargs):
            entered = perf_counter()
            snapshot = before() if before else None
            frame = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name, entered)
            if after:
                t = perf_counter()
                after(snapshot, args, result)
                if self._stack:
                    self._stack[-1][1] += perf_counter() - t
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        nid = self._intern(name)
        counts = self.counts

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    entered = perf_counter()
                    frame = self._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, name, entered)
                    counts[name + ".yielded"] += 1
                    yield item
            finally:
                gen.close()

        traced.__wrapped__ = fn
        return traced

    def _intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every loaded asmlab module."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "asmlab" or name.startswith("asmlab."))
        }

        def lookup(qualname):
            modname, fname = qualname.split(".")
            return getattr(modules.get(f"asmlab.{modname}"), fname, None)

        for metric, qualname in LRU.items():
            fn = lookup(qualname)
            if hasattr(fn, "cache_info"):
                self._lru_start[metric] = (fn, fn.cache_info())
        observers = _observers(self)
        for name in TRACED:
            original = lookup(name)
            if original is None:
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, observers.get(name))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- reporting ------------------------------------------------------------

    def metrics(self, answered: int) -> dict[str, float]:
        """Per-layer metrics; `answered` is the number of distinct ASMs the
        workload answered, for the stream's useful-work ratio."""
        out: dict[str, float] = dict.fromkeys(COUNTS, 0)
        for metric in LRU:
            out[f"{metric}.misses"] = out[f"{metric}.hits"] = 0
        for name in TRACED:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out.update(self.counts)
        for metric, (fn, start) in self._lru_start.items():
            now = fn.cache_info()
            out[f"{metric}.misses"] = now.misses - start.misses
            out[f"{metric}.hits"] = now.hits - start.hits
        yielded = self.counts.get("enumeration.enumerate_asms.yielded", 0)
        out["enumeration.stream_useful_ratio"] = answered / yielded if yielded else 0.0
        homology = sys.modules.get("asmlab.homology")
        out["homology.cache_entries"] = sum(
            len(getattr(homology, cache, ())) for cache in ("_BETTI_CACHE", "_CM_CACHE")
        )
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path: Path) -> None:
        """Dump the spans: a JSON header and the four arrays, in that order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name_id", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def _observers(tr: Tracer) -> dict[str, tuple]:
    """(before, after) hooks per traced function, for the counts taken from
    arguments and results; `after` gets what `before` returned."""
    c = tr.counts

    def rank_calls():
        return tr.calls.get("homology.sparse_rank", 0)

    def primes_out(_, args, result):
        c["ideals.minimal_primes.primes_out"] += len(result)

    def facets_max(_, args, result):
        key = "complexes.sr_complex_from_ideal.facets_max"
        c[key] = max(c[key], len(result.facets))

    def cm_outcome(rank_calls_before, args, result):
        c["homology.is_cohen_macaulay.cm_true"] += bool(result)
        c["homology.is_cohen_macaulay.decided_without_rank"] += rank_calls() == rank_calls_before

    def faces(_, args, result):
        c["homology.chain_complex.faces"] += sum(result.dims)

    def rank_input(_, args, result):
        rows = args[0]
        c["homology.sparse_rank.rows"] += len(rows)
        c["homology.sparse_rank.nnz"] += sum(len(r) for r in rows)

    return {
        "ideals.minimal_primes": (None, primes_out),
        "complexes.sr_complex_from_ideal": (None, facets_max),
        "homology.is_cohen_macaulay": (rank_calls, cm_outcome),
        "homology.chain_complex": (None, faces),
        "homology.sparse_rank": (None, rank_input),
    }
