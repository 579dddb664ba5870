"""Per-layer spans and counters, installed from outside the package.

The tracer replaces each layer's public function at the sites that
import it (module globals and class attributes) with a wrapper, and
puts the originals back afterwards.  A span records its duration and
charges it to the enclosing span, so each layer's self time excludes
its traced children.  Functions that run in microseconds (matrix and
surd construction, products, Gauss steps) are only counted: timing
them would distort the run.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self._stack = []  # child time accumulated by each open span
        self._undo = []
        self.missing = []

    def span(self, name, fn, after=None):
        counts, self_s, stack = self.counts, self.self_s, self._stack

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result)
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, owner, attr, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; a layer that a
        later version of the package no longer has is skipped and listed."""
        original = None if owner is None else owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, modules) -> None:
        """Wrap every traced layer; ``modules`` maps short names to the
        imported ``sl2real`` submodules."""
        cli, farey, mat2 = modules["cli"], modules["farey"], modules["mat2"]
        realness, classify, render = modules["realness"], modules["classify"], modules["render"]
        mat, cycle = getattr(mat2, "Mat2", None), getattr(farey, "Cycle", None)
        counts, wrap = self.counts, self._wrap

        def peeled(word):
            counts["farey.peel_steps"] += sum(word.exponents)

        def split(result):
            counts["realness.is_odd_bipalindromic.splits_found"] += result is not None

        def svg_bytes(doc):
            counts["render.svg_bytes"] += len(doc)  # the document is ASCII

        def span(name, after=None):
            def make(original):
                if isinstance(original, property):
                    return property(self.span(name, original.fget, after))
                if isinstance(original, (classmethod, staticmethod)):
                    return type(original)(self.span(name, original.__func__, after))
                return self.span(name, original, after)

            return make

        def count(name):
            return lambda fn: self.counter(name, fn)

        wrap(farey, "greedy_factor", span("farey.greedy_factor", peeled))
        wrap(farey, "_gauss_orbit", span("farey.gauss_orbit"))
        for mod in (farey, classify, realness, cli):
            wrap(mod, "cutting_cycle", span("farey.cutting_cycle"))
        wrap(realness, "is_odd_bipalindromic", span("realness.is_odd_bipalindromic", split))
        wrap(cycle, "canonical", span("farey.cycle_canonical"))
        wrap(cli, "Cycle", count("cli.atlas.tuples"))
        wrap(mat, "__post_init__", count("mat2.new.calls"))
        wrap(mat, "__matmul__", count("mat2.matmul.calls"))
        wrap(getattr(farey, "Surd", None), "__post_init__", count("farey.surd.new.calls"))
        wrap(farey, "cf_step", count("farey.cf_step.calls"))
        for mod in (cli, realness):
            wrap(mod, "classify", span("classify.classify"))
        for name in ("elliptic_canonicalize", "parabolic_canonicalize"):
            wrap(realness, name, span("classify." + name))
        wrap(cli, "is_real", span("realness.is_real"))
        wrap(cli, "factor_real", span("realness.factor_real"))
        for name in ("from_text", "from_json_obj"):
            wrap(mat, name, span("mat2.parse"))
        for cls in (mat, cycle, getattr(classify, "MatClass", None),
                    getattr(realness, "RealFactorization", None)):
            wrap(cls, "to_json_obj", span("json.to_json_obj"))
        wrap(render, "farey_figure", span("render.farey_figure"))
        wrap(render, "render_svg", span("render.render_svg", svg_bytes))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
