"""Spans recorded from outside the package, around calls into its layers.

A ``Tracer`` replaces each public function of a layer module with a thin
wrapper, in every loaded ``oatsqueeze`` module that refers to it, so a
call is traced where the caller looks the name up (``cli.main`` ->
``analytic.*``, ``verify.run_suite`` -> ``oracle.*``,
``monte_carlo_mean_xi2`` -> ``quadrature_components``).  Nothing in the
package changes on disk; ``uninstall`` puts every original back.

A span is ``[name, start_ns, end_ns, parent_index, run_id, attrs]``.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import time

LAYERS = ("analytic", "inhomogeneous", "oracle", "verify", "cli")

# private names that are the hot inner call of a public function and that a
# per-layer count needs: every RK4 stage evaluates the master-equation RHS here
EXTRA_NAMES = {"oracle": ("_raw_rhs",)}


def _evolve_attrs(args, kwargs):
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    return {"steps": cfg.steps()}


# per-span attributes read from the arguments of a traced call
ANNOTATORS = {"oracle.evolve": _evolve_attrs}


class NullTracer:
    """Stand-in used by untraced passes: spans cost one no-op context."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run_id, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self.open(name, attrs or None)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        annotate = ANNOTATORS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, annotate(args, kwargs) if annotate else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def install(self, package_modules: dict) -> None:
        """Wrap the public functions of each layer in ``package_modules``.

        ``package_modules`` maps a module name (``analytic``, ...) to the
        module; every module in it is searched for references to each
        wrapped function, so names imported with ``from x import f`` are
        replaced too.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            mod = package_modules[layer]
            for attr, value in vars(mod).items():
                public = not attr.startswith("_") or attr in EXTRA_NAMES.get(layer, ())
                if public and inspect.isfunction(value) and value.__module__ == mod.__name__:
                    originals[id(value)] = (value, self._wrap(value, f"{layer}.{attr}"))
        for mod in package_modules.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self, package_modules: dict):
        self.install(package_modules)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def child_ns(self) -> list[int]:
        """Time covered by each span's direct children."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _run, _attrs in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def self_ns(self) -> dict[str, dict[str, int]]:
        """Self time (duration minus direct children), per run id and layer."""
        covered = self.child_ns()
        out: dict[str, dict[str, int]] = {}
        for idx, (name, start, end, _parent, run, _attrs) in enumerate(self.spans):
            layers = out.setdefault(run, {})
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + (end - start) - covered[idx]
        return out

    def write(self, path) -> None:
        """Spans as gzip-compressed JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, run, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "run": run,
                                     "attrs": attrs}) + "\n")
