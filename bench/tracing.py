"""Per-layer tracing, recorded from the benchmark's side.

A traced run replaces the package's public functions and TeamAlgebra
methods with wrappers that count calls and time them, layer by layer.
A layer's time is taken at its outermost call only, so recursion
(denote_general calls itself) and nesting within one layer
(operational_terms consumes iter_paths) are timed once while every call
is counted.  Generator functions are timed while they produce values,
not while their caller consumes them.  Calls into the coarse layers are
also kept as spans (layer, start, end, parent span) and written to the
trace file; the hot algebra primitives are only aggregated.

Module import is timed by a meta-path hook installed before the package
is imported, which gives the self time of each module's body: for
inqmt.rules that is the building and validation of the rule table.
"""

from __future__ import annotations

import importlib
import importlib.abc
import inspect
import sys
import time

perf = time.perf_counter

# layer -> (module, attribute names); "Class.method" names a method
LAYERS = {
    "parser.parse": ("inqmt.parser", (
        "parse_derivation", "parse_inql", "parse_sequent", "parse_structure", "parse_flat",
        "parse_general", "parse_flat_structure", "parse_general_structure")),
    "parser.print": ("inqmt.parser", ("derivation_to_sexp",)),
    "calculus.check": ("inqmt.calculus", ("check_derivation",)),
    "calculus.match": ("inqmt.calculus", ("match_rule", "match_name")),
    "calculus.audit": ("inqmt.calculus", ("audit_soundness",)),
    "calculus.sequent_holds": ("inqmt.calculus", ("sequent_holds",)),
    "calculus.schema_soundness": ("inqmt.calculus", ("schema_soundness_counterexample",)),
    "structures.walk": ("inqmt.structures", (
        "Derivation.nodes", "iter_paths", "operational_terms", "term_is_covered")),
    "cutelim.reduce": ("inqmt.cutelim", ("reduce_all",)),
    "algebra.denote": ("inqmt.algebra", ("TeamAlgebra.denote_flat", "TeamAlgebra.denote_general")),
    "algebra.heyting": ("inqmt.algebra", ("TeamAlgebra.heyting",)),
    "algebra.downset": ("inqmt.algebra", ("TeamAlgebra.downset",)),
    "algebra.closure": ("inqmt.algebra", ("TeamAlgebra.down_closure", "TeamAlgebra.up_closure")),
    "teams.support_table": ("inqmt.teams", ("support_table",)),
    "teams.support": ("inqmt.teams", ("support",)),
    "teams.flat": ("inqmt.teams", ("is_flat_semantic",)),
    "translate.tau_i": ("inqmt.translate", ("tau_i",)),
    "selftest.run": ("inqmt.selftest", ("run",)),
}
SPAN_LAYERS = frozenset((
    "parser.parse", "parser.print", "calculus.check", "calculus.audit",
    "calculus.schema_soundness", "cutelim.reduce", "teams.support_table", "teams.support",
    "teams.flat", "translate.tau_i", "selftest.run",
))


class ImportTimer(importlib.abc.MetaPathFinder):
    """Self time of each inqmt module body, nested imports subtracted."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self._open: list[float] = []

    def find_spec(self, name, path, target=None):
        if name != "inqmt" and not name.startswith("inqmt."):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is not None and hasattr(spec.loader, "exec_module"):
            run = spec.loader.exec_module

            def exec_module(module, run=run):
                self._open.append(0.0)
                t0 = perf()
                try:
                    run(module)
                finally:
                    took = perf() - t0
                    self.self_s[name] = took - self._open.pop()
                    if self._open:
                        self._open[-1] += took

            spec.loader.exec_module = exec_module
        return spec


class Tracer:
    def __init__(self):
        # layer -> [calls, seconds at the outermost call, open depth]
        self.cells = {layer: [0, 0.0, 0] for layer in LAYERS}
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.chars = 0  # characters handed to outermost parse calls
        self.missing: list[str] = []

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int):
        self.spans[index][2] = perf()
        self._stack.pop()

    # ---------------------------------------------------------- wrappers

    def _wrap(self, layer: str, fn):
        cell = self.cells[layer]
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                cell[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    outer = not cell[2]
                    if outer:
                        cell[2] = 1
                        t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if outer:
                            cell[1] += perf() - t0
                            cell[2] = 0
                    yield item

            return gen_wrapper

        span = layer in SPAN_LAYERS
        parse = layer == "parser.parse"

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if cell[2]:
                return fn(*args, **kwargs)
            cell[2] = 1
            if parse and args and isinstance(args[0], str):
                self.chars += len(args[0])
            index = self.begin(layer) if span else None
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += perf() - t0
                cell[2] = 0
                if span:
                    self.end(index)

        return wrapper

    def install(self):
        """Wrap every target; rebind each module-level reference to it,
        since the package's modules import functions by name."""
        for module_name, _ in LAYERS.values():
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items() if n == "inqmt" or n.startswith("inqmt.")]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                wrapped = self._wrap(layer, fn)
                if owner is not module:
                    setattr(owner, attr, wrapped)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)

    # ------------------------------------------------------------ report

    def ms(self, layer: str, rounds: int) -> float:
        return self.cells[layer][1] * 1000 / rounds

    def calls(self, layer: str, rounds: int) -> float:
        return self.cells[layer][0] / rounds

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        own = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end is not None and parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is not None:
                own[name] = own.get(name, 0.0) + (end - start) - child[i]
        return own
