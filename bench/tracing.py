"""Per-layer tracing of ``berezin`` from outside the program.

``Tracer.install`` replaces the public functions of the layer modules with
timing wrappers, in the defining module and in every module that imported
them by name (including dicts such as the verify suite table), and wraps
``BrownianMotion.expect``/``expect_element`` and ``GrassmannElement.__mul__``
at class level.  ``uninstall`` restores the originals, so untraced passes
run the unmodified program.

Each wrapped call is a span (name, parent, start, end) kept in memory.  A
span's self time is its duration minus the time covered by its child spans
and by the element products made directly inside it.  Products are too
many and too small for spans: they are aggregated as counters (calls, term
pairs, largest result, time).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("algebra", "calculus", "wiener", "stochastic", "feynman_kac", "verify", "cli")

# Constructors and multi-index helpers run once per generator or term pair; a
# span around each would cost more than the work it times.  Their time stays
# in the caller's self time.
UNTRACED = {
    "algebra": {
        "eta", "increment", "aux", "gen", "scalar", "monomial", "norm", "parity",
        "multi_index", "index_generators", "index_degree", "index_product",
        "set_prune_threshold", "prune_threshold",
    },
}

# Span names that report as one layer metric; nested members count once.
GROUPS = {
    "wiener.expect": ("wiener.BrownianMotion.expect", "wiener.BrownianMotion.expect_element"),
    "stochastic.ito_residuals": (
        "stochastic.isometry_residual",
        "stochastic.ito_formula_residual",
        "stochastic.integration_by_parts_residual",
    ),
    "verify.algebra": ("verify.algebra_suite",),
    "verify.wiener": ("verify.wiener_suite",),
    "verify.ito": ("verify.ito_suite",),
    "verify.sde": ("verify.sde_suite",),
    "verify.fk": ("verify.feynman_kac_suite",),
}

_GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

# (metric, unit) in report order; the per_layer list of BENCHMARK.json.
METRICS = (
    ("wiener.expect.calls", "count"),
    ("wiener.expect.s", "s"),
    ("wiener.expect.self_s", "s"),
    ("wiener.heat_kernel.calls", "count"),
    ("stochastic.picard_solve.calls", "count"),
    ("stochastic.picard_solve.passes", "count"),
    ("stochastic.picard_solve.self_s", "s"),
    ("stochastic.ito_residuals.s", "s"),
    ("feynman_kac.fk_evolve.calls", "count"),
    ("feynman_kac.fk_evolve.slices", "count"),
    ("feynman_kac.fk_evolve.self_s", "s"),
    ("feynman_kac.fk_evolve.us_per_slice", "us"),
    ("feynman_kac.semigroup_oracle.calls", "count"),
    ("feynman_kac.semigroup_oracle.s", "s"),
    ("feynman_kac.hamiltonian_matrix.s", "s"),
    ("feynman_kac.kernel_extract.s", "s"),
    ("feynman_kac.fk_bruteforce.s", "s"),
    ("calculus.berezin_integrate.calls", "count"),
    ("calculus.berezin_integrate.self_s", "s"),
    ("algebra.mul.calls", "count"),
    ("algebra.mul.pairs", "count"),
    ("algebra.mul.s", "s"),
    ("algebra.mul.peak_terms", "count"),
    ("algebra.substitute.calls", "count"),
    ("algebra.substitute.self_s", "s"),
    ("algebra.grassmann_exp.calls", "count"),
    ("verify.algebra.s", "s"),
    ("verify.wiener.s", "s"),
    ("verify.ito.s", "s"),
    ("verify.sde.s", "s"),
    ("verify.fk.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),  # traced minus untraced wall_s, measured by the worker
)


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.extra = 0


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object, bool]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats: dict[str, _Stat] = {}
        self.groups = {group: _Stat() for group in GROUPS}
        self._stack: list[list] = []
        self._next_id = 0
        self.mul_calls = 0
        self.mul_pairs = 0
        self.mul_peak = 0
        self.mul_s = 0.0

    # -- spans ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs, count):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][2] if stack else -1
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        group = self.groups.get(_GROUP_OF.get(name))
        stat.depth += 1
        if group is not None:
            group.depth += 1
        frame = [0.0, 0.0, span_id]  # start, time covered by children, id
        stack.append(frame)
        start = frame[0] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            stat.depth -= 1
            stat.calls += 1
            stat.self_s += duration - frame[1]
            if not stat.depth:
                stat.incl += duration
            if group is not None:
                group.depth -= 1
                group.calls += 1
                if not group.depth:
                    group.incl += duration
            if stack:
                stack[-1][1] += duration
            self.spans.append((span_id, parent, name, start, end))
        if count is not None:
            stat.extra += count(args, kwargs, result)
        return result

    def _wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, count)

        return wrapper

    def _wrap_mul(self, mul, element_type):
        def traced_mul(a, b):
            if b.__class__ is not element_type:
                return mul(a, b)
            start = perf_counter()
            result = mul(a, b)
            duration = perf_counter() - start
            self.mul_calls += 1
            self.mul_pairs += len(a._terms) * len(b._terms)
            size = len(result._terms)
            if size > self.mul_peak:
                self.mul_peak = size
            self.mul_s += duration
            if self._stack:
                self._stack[-1][1] += duration
            return result

        return traced_mul

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from berezin import algebra, wiener

        package = [m for n, m in sorted(sys.modules.items()) if n == "berezin" or n.startswith("berezin.")]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"berezin.{layer}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in UNTRACED.get(layer, ())
                ):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value, _COUNTERS.get(f"{layer}.{attr}"))
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._set_item(value, key, wrappers[id(item)])

        motion = wiener.BrownianMotion
        for method in ("expect", "expect_element"):
            self._set(motion, method, self._wrap(f"wiener.BrownianMotion.{method}", getattr(motion, method)))
        element = algebra.GrassmannElement
        self._set(element, "__mul__", self._wrap_mul(element.__mul__, element))

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def _set_item(self, owner, key, value) -> None:
        self._patches.append((owner, key, owner[key], True))
        owner[key] = value

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- reports -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        def stat(name):
            return self.stats.get(name) or _Stat()

        fk = stat("feynman_kac.fk_evolve")
        expect = self.groups["wiener.expect"]
        expect_self = sum(stat(n).self_s for n in GROUPS["wiener.expect"])
        out = {
            "wiener.expect.calls": expect.calls,
            "wiener.expect.s": expect.incl,
            "wiener.expect.self_s": expect_self,
            "wiener.heat_kernel.calls": stat("wiener.heat_kernel").calls,
            "stochastic.picard_solve.calls": stat("stochastic.picard_solve").calls,
            "stochastic.picard_solve.passes": stat("stochastic.picard_solve").extra,
            "stochastic.picard_solve.self_s": stat("stochastic.picard_solve").self_s,
            "stochastic.ito_residuals.s": self.groups["stochastic.ito_residuals"].incl,
            "feynman_kac.fk_evolve.calls": fk.calls,
            "feynman_kac.fk_evolve.slices": fk.extra,
            "feynman_kac.fk_evolve.self_s": fk.self_s,
            "feynman_kac.fk_evolve.us_per_slice": 1e6 * fk.incl / fk.extra if fk.extra else 0.0,
            "feynman_kac.semigroup_oracle.calls": stat("feynman_kac.semigroup_oracle").calls,
            "feynman_kac.semigroup_oracle.s": stat("feynman_kac.semigroup_oracle").incl,
            "feynman_kac.hamiltonian_matrix.s": stat("feynman_kac.hamiltonian_matrix").incl,
            "feynman_kac.kernel_extract.s": stat("feynman_kac.kernel_extract").incl,
            "feynman_kac.fk_bruteforce.s": stat("feynman_kac.fk_bruteforce").incl,
            "calculus.berezin_integrate.calls": stat("calculus.berezin_integrate").calls,
            "calculus.berezin_integrate.self_s": stat("calculus.berezin_integrate").self_s,
            "algebra.mul.calls": self.mul_calls,
            "algebra.mul.pairs": self.mul_pairs,
            "algebra.mul.s": self.mul_s,
            "algebra.mul.peak_terms": self.mul_peak,
            "algebra.substitute.calls": stat("algebra.substitute").calls,
            "algebra.substitute.self_s": stat("algebra.substitute").self_s,
            "algebra.grassmann_exp.calls": stat("algebra.grassmann_exp").calls,
            "cli.main.calls": stat("cli.main").calls,
            "cli.main.self_s": stat("cli.main").self_s,
        }
        for suite in ("algebra", "wiener", "ito", "sde", "fk"):
            out[f"verify.{suite}.s"] = self.groups[f"verify.{suite}"].incl
        return out

    def write_spans(self, path: str) -> None:
        """Spans as JSON lines [id, parent, name, start_s, end_s], times from
        the first span's start."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for span_id, parent, name, start, end in sorted(self.spans):
                handle.write(json.dumps([span_id, parent, name, start - origin, end - origin]) + "\n")


def _picard_passes(args, kwargs, result) -> int:
    return len(result.differences)


def _fk_slices(args, kwargs, result) -> int:
    partition = kwargs["partition"] if "partition" in kwargs else args[2]
    return partition.steps


_COUNTERS = {
    "stochastic.picard_solve": _picard_passes,
    "feynman_kac.fk_evolve": _fk_slices,
}
