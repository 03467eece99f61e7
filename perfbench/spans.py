"""Per-layer tracing for the glcenter benchmark, from the benchmark's side.

`Tracer.install()` replaces public functions of the glcenter modules with
wrappers. A module that imported a function by name (`central` imports
`devirtualize`, `enveloping` imports `superpolarize`) holds its own binding,
so every `glcenter.*` module attribute that *is* the original function is
rebound, and `restore()` puts each original back.

Spanned functions record (name, start, end, parent, job) in memory; hot
leaves only count calls. `aggregate()` turns the spans into calls, total
time (outermost calls only) and self time (span minus wrapped children).
"""

from __future__ import annotations

import importlib
import sys
import time

MODULES = ("cli", "central", "enveloping", "superspace", "shifted", "linalg", "combinatorics")

_CENTRAL = (
    "schur_element", "young_capelli", "double_young_capelli", "capelli_immanant",
    "capelli_H", "capelli_H_cdet", "nazarov_umeda_I", "nazarov_umeda_I_cper",
    "eigenvalue", "duality_W", "embed", "olshanski_project",
)

# Functions timed with a span, as "module.name".
SPANNED = (
    ("cli.main", "cli.element_to_json")
    + tuple(f"central.{f}" for f in _CENTRAL)
    + (
        "enveloping.devirtualize", "enveloping.pbw_normal_form", "enveloping.act",
        "enveloping.is_central", "enveloping.format_element",
        "superspace.highest_weight_vector",
        "shifted.s_star", "shifted.harish_chandra", "shifted.express_in_estar_basis",
        "shifted.is_shifted_symmetric", "shifted.omega", "shifted.i_star",
        "linalg.rank", "linalg.solve_many",
        "combinatorics.enumerate_row_increasing", "combinatorics.enumerate_rssyt",
        "combinatorics.sym_character",
    )
)

# Hot leaves: a call counter only, never a span.
COUNTED = ("superspace.superpolarize", "shifted.eval_at_partition")


def _words_and_terms(args, kwargs, result):
    return {"words_in": len(args[0]), "terms_out": len(result)}


def _terms(args, kwargs, result):
    return {"terms_out": len(result)}


def _cells(args, kwargs, result):
    a = args[0]
    return {"cells": len(a) * (len(a[0]) if a else 0)}


def _cells_rhs(args, kwargs, result):
    return {**_cells(args, kwargs, result), "rhs": len(args[1])}


# Extra counters read off a spanned call's arguments and result.
EXTRAS = {
    "enveloping.devirtualize": _words_and_terms,
    "enveloping.pbw_normal_form": _terms,
    "linalg.rank": _cells,
    "linalg.solve_many": _cells_rhs,
}

ENVELOPING_CACHES = ("_pbw_cache", "_devirt_cache", "_push_cache")


def glcenter_modules() -> dict:
    """Import every layer module and return them by short name."""
    return {m: importlib.import_module(f"glcenter.{m}") for m in MODULES}


def find_bindings(orig) -> list:
    """Every (module, attribute) of a loaded glcenter module bound to orig."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "glcenter" or mod_name.startswith("glcenter.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                found.append((mod, attr))
    return found


def cache_entries() -> int:
    """Summed length of the enveloping module-level caches that exist."""
    env = sys.modules.get("glcenter.enveloping")
    return sum(len(getattr(env, c)) for c in ENVELOPING_CACHES if hasattr(env, c))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.counts = {}  # "module.name.counter" -> int
        self.job = ""
        self._stack = []
        self._saved = []  # (module, attribute, original)
        self._schur_built = set()

    def _schur_repeats(self, args, kwargs, result):
        """Counts schur_element builds whose (lambda, n) this process built before."""
        key = (tuple(args[0]), args[1] if len(args) > 1 else kwargs["n"])
        repeat = key in self._schur_built
        self._schur_built.add(key)
        return {"repeats": int(repeat)}

    def _spanned(self, name, fn):
        extra = self._schur_repeats if name == "central.schur_element" else EXTRAS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, tracer.job])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        mods = glcenter_modules()
        for names, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name in names:
                mod_name, attr = name.split(".")
                orig = getattr(mods[mod_name], attr)
                wrapper = make(name, orig)
                for mod, bound_attr in find_bindings(orig):
                    self._saved.append((mod, bound_attr, orig))
                    setattr(mod, bound_attr, wrapper)

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def aggregate(spans) -> dict:
    """calls, total_s and self_s per spanned name, and self_s per module.

    total_s sums only the outermost call of a name, so a function reached
    again inside itself is not counted twice; self_s is a span's duration
    minus the time its wrapped children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child[i]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            entry["total_s"] += end - start
    modules = {m: 0.0 for m in MODULES}
    for name, entry in out.items():
        modules[name.split(".")[0]] += entry["self_s"]
    return {"functions": out, "modules": modules}
