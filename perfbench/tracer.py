"""Per-layer spans and counters for xlramsey, installed from outside.

``Tracer.install`` replaces every public function of the layer modules
(largesets, machines, colorings, decoders, ramsey, cli) with a wrapper
that records a span: name, start, end and the index of its parent span.
A name imported into another xlramsey module is replaced there too.
Coloring evaluations (memo misses) are spans named ``colorings.eval``.

The multi-million-call points, ``FiniteColoring.__call__``,
``ExactColoring.__call__`` and ``FinSet.__init__``, and the
``ExplicitOracle`` constructor only count calls: their time lands in the
self time of the enclosing span, which is the caller's layer
(``ramsey.er_children`` and the verifiers call the colorings, and a
``colorings.eval`` builds the FinSets of the sets it colors).

Spans live in parallel arrays in memory and are written out once, by
``write``, after the run.  A layer's self time is its spans' time minus
the time covered by their child spans, accumulated as spans close.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("largesets", "machines", "colorings", "decoders", "ramsey", "cli")
_VERIFIERS = ("ramsey.verify_exact_homogeneous", "ramsey.verify_min_homogeneous")
_SEARCHES = ("ramsey.exact_homog_search", "ramsey.min_homog_search")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s: list[float] = []
        self._stack = [-1]
        self._child = [0.0]
        self.counts: dict[str, int] = {}
        self._cells: list[tuple[str, list]] = []
        self.jump_results: set = set()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
        return nid

    def _bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        nid = self._id(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, child, self_s = self._stack, self._child, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            child.append(0.0)
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[i] = t1
                stack.pop()
                d = t1 - t0
                self_s[nid] += d - child.pop()
                child[-1] += d

        return traced

    def span_generator(self, name: str, fn, yields_key: str):
        """Span every resumption of a generator, and count its items."""
        step = self.span(name, next)
        bump = self._bump

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                bump(yields_key)
                yield item

        return traced

    def count_calls(self, cls, attr: str, key: str) -> None:
        orig = cls.__dict__[attr]
        cell = [0]
        self._cells.append((key, cell))

        def counted(*args, **kwargs):
            cell[0] += 1
            return orig(*args, **kwargs)

        setattr(cls, attr, counted)

    @staticmethod
    def observe(fn, hook):
        """Call fn and hand its result to hook."""

        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result)
            return result

        return observed

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import xlramsey
        from xlramsey import colorings, largesets, machines

        modules = [sys.modules[f"xlramsey.{m}"] for m in LAYERS]
        self._decode_program = machines.decode_program
        hooks = {
            "ramsey.verify_exact_homogeneous": self._on_verify,
            "ramsey.verify_min_homogeneous": self._on_verify,
            "machines.staged_jump": lambda r: self.jump_results.add(r.elems),
            "decoders.m_decode": self._on_verdict,
        }
        replaced = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    wrapper = self.span_generator(name, obj, f"{layer}.yields")
                else:
                    inner = self.observe(obj, hooks[name]) if name in hooks else obj
                    wrapper = self.span(name, inner)
                for extra in ("cache_info", "cache_clear"):
                    if hasattr(obj, extra):
                        setattr(wrapper, extra, getattr(obj, extra))
                replaced[id(obj)] = (obj, wrapper)
        for mod in [xlramsey] + modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        self.count_calls(colorings.FiniteColoring, "__call__", "colorings.finite_calls")
        self.count_calls(colorings.ExactColoring, "__call__", "colorings.exact_calls")
        self.count_calls(largesets.FinSet, "__init__", "largesets.finsets_built")
        self.count_calls(machines.ExplicitOracle, "__init__", "machines.oracles_built")
        self._span_evals(colorings.FiniteColoring)
        self._span_evals(colorings.ExactColoring)
        self._count_simulations(machines)

    def _span_evals(self, cls) -> None:
        """Wrap each new coloring's evaluation function in a span, so
        memo misses are timed and counted as colorings work."""
        orig_init = cls.__dict__["__init__"]
        span = self.span

        def init(obj, *args, **kwargs):
            orig_init(obj, *args, **kwargs)
            obj._fn = span("colorings.eval", obj._fn)

        cls.__init__ = init

    def _count_simulations(self, machines) -> None:
        """Count machine simulations started directly by halt_threshold,
        which are its cache misses."""
        orig = machines._simulate
        ht = self._id("machines.halt_threshold")
        kind, stack = self.kind, self._stack
        cell = [0]
        self._cells.append(("machines.threshold_misses", cell))

        def simulate(*args):
            if stack[-1] >= 0 and kind[stack[-1]] == ht:
                cell[0] += 1
            return orig(*args)

        machines._simulate = simulate

    def _on_verify(self, report) -> None:
        self._bump("ramsey.verify_subsets", report.checked)

    def _on_verdict(self, verdict) -> None:
        self._bump("decoders.verdicts_insufficient", int(verdict.answer is None))

    # -- results ----------------------------------------------------------

    def _total_s(self, names) -> float:
        ids = {self._ids[n] for n in names if n in self._ids}
        return sum(e - s for k, s, e in zip(self.kind, self.start, self.end) if k in ids)

    def _children_of(self, child_names, parent_names) -> int:
        cids = {self._ids[n] for n in child_names if n in self._ids}
        pids = {self._ids[n] for n in parent_names if n in self._ids}
        kind = self.kind
        return sum(1 for k, p in zip(kind, self.parent)
                   if k in cids and p >= 0 and kind[p] in pids)

    def metrics(self) -> dict:
        """Per-layer counts (machine-independent) and times."""
        counts = dict(self.counts)
        for key, cell in self._cells:
            counts[key] = cell[0]
        per_id = Counter(self.kind)
        calls = {n: per_id[i] for i, n in enumerate(self.names)}
        col_calls = counts["colorings.finite_calls"] + counts["colorings.exact_calls"]
        evals = calls.get("colorings.eval", 0)
        ht_calls = calls.get("machines.halt_threshold", 0)
        ht_misses = counts["machines.threshold_misses"]
        c = {
            "ramsey.er_nodes": calls.get("ramsey.er_children", 0),
            "ramsey.extract_calls": calls.get("ramsey.f_a_extract", 0),
            "ramsey.chain_stages": self._children_of(["ramsey.f_a_extract"],
                                                     ["ramsey.iterate_rtomega"]),
            "colorings.calls": col_calls,
            "colorings.evals": evals,
            "colorings.memo_hit_ratio": (col_calls - evals) / col_calls if col_calls else 0.0,
            "largesets.finsets_built": counts["largesets.finsets_built"],
            "largesets.sets_enumerated": counts.get("largesets.yields", 0),
            "ramsey.candidates_examined": self._children_of(_VERIFIERS, _SEARCHES),
            "ramsey.verify_subsets": counts.get("ramsey.verify_subsets", 0),
            "machines.staged_jump_calls": calls.get("machines.staged_jump", 0),
            "machines.oracles_built": counts["machines.oracles_built"],
            "machines.jump_results_distinct": len(self.jump_results),
            "machines.halt_threshold_calls": ht_calls,
            "machines.threshold_hit_ratio": (ht_calls - ht_misses) / ht_calls if ht_calls else 0.0,
            "machines.decode_program_misses": self._decode_program.cache_info().misses,
            "decoders.mn_raw_calls": calls.get("decoders.mn_raw", 0),
            "decoders.verdicts": calls.get("decoders.m_decode", 0),
            "decoders.verdicts_insufficient": counts.get("decoders.verdicts_insufficient", 0),
        }
        times = {
            "ramsey.er_children_s": self._total_s(["ramsey.er_children"]),
            "ramsey.verify_s": self._total_s(_VERIFIERS),
        }
        for layer in LAYERS:
            times[f"{layer}.self_s"] = sum(
                s for n, s in zip(self.names, self.self_s) if n.split(".")[0] == layer)
        return {"counts": c, "times": times, "spans": len(self.kind)}

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the kind, parent,
        start and end arrays in native binary layout."""
        header = {"names": self.names, "spans": len(self.kind),
                  "arrays": ["kind:i", "parent:i", "start:d", "end:d"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(fh)
