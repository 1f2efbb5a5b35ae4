"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed from outside the library, around each layer's public
entry points, and rebound in every straightlaw module that imported the
original function, so internal calls are seen too. Hot functions aggregate
calls, total time and self time per name instead of storing spans; functions
that take well under a microsecond are only counted, because timing them
would mostly measure the wrapper. Cache sizes are read from outside at the
end of the timed section.

The untraced timed run never imports this module.

Which end-to-end metric each layer's numbers should move, and where; on the
other workloads the prediction is no change:
  indexsets.*       wall_s on laplace-n7 and relations-n6, ops_per_s on certify
  polynomials.*     ops_per_s and latency_p50_ms on certify, wall_s on
                    independence-334; about zero on laplace-n7, relations-n6
  bideterminants.*  wall_s on relations-n6; expand_minor.* also on certify
  straightening.*   wall_s and peak_rss_mb on laplace-n7, latency_p99_ms on
                    certify
  standard.*        ops_per_s and latency_p50_ms on certify; expand_word.*
                    also wall_s on independence-334
  independence.*    wall_s on independence-334
  cli.*             ops_per_s and latency_p50_ms on certify
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

SPAN_NAMES = (
    "polynomials.mul",
    "polynomials.add",
    "bideterminants.check_relation",
    "bideterminants.relation_family",
    "straightening.straighten_laplace",
    "straightening.straighten_pair",
    "standard.normal_form",
    "independence.integer_rank",
    "independence.polynomial_rank",
    "independence.witness",
    "cli.main",
    "cli.build_certificate",
)

_STRAIGHTENING = ("straightening.straighten_laplace", "straightening.straighten_pair")


class Tracer:
    """Aggregated spans and counters. A frame on the stack is
    [name, seconds spent in child spans, Laplace terms seen by a pair call]."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.stack: list = []

    def _exclude(self, seconds: float) -> None:
        # Book-keeping done by a wrapper outside its own span is charged to
        # no layer: the enclosing span treats it like child time.
        if self.stack:
            self.stack[-1][1] += seconds

    def span(self, name: str, fn, after=None):
        """Time fn as a span; after(args, result, caller_frame, own_frame)
        runs outside every span."""
        stack, calls, total_s, self_s = self.stack, self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                t1 = clock()
                after(args, result, stack[-1] if stack else None, frame)
                self._exclude(clock() - t1)
            return result

        return wrapper

    def span_generator(self, name: str, fn):
        """Like span, for a generator function: each resumption is timed and
        one call is counted per generator created."""
        stack, calls, total_s, self_s = self.stack, self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0, None]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    total_s[name] += dt
                    self_s[name] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
                yield item

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_yields(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    # -- hooks that derive work counts from arguments and results ---------

    def _after_mul(self, args, result, caller, own):
        self_poly, other = args
        if isinstance(other, type(self_poly)):
            self.counts["polynomials.mul.term_pairs"] += len(self_poly) * len(other)

    def _after_check_relation(self, args, result, caller, own):
        rel = args[0]
        n = rel.ground
        self.counts["bideterminants.sigma.perm_visits"] += sum(
            math.factorial(len(a)) * math.factorial(n - len(a)) for (a, _), _ in rel.items()
        )

    def _after_straighten(self, args, result, caller, own):
        if caller is None or caller[0] not in _STRAIGHTENING:
            self.counts["straightening.terms_out"] += len(result)
        if own[0] == "straightening.straighten_laplace":
            if caller is not None and caller[0] == "straightening.straighten_pair":
                caller[2] = (caller[2] or 0) + len(result)
        elif own[2] is not None:
            self.counts["straightening.pair.laplace_terms"] += own[2]
            self.counts["straightening.pair.kept_terms"] += len(result)

    def _rank_wrapper(self, fn):
        inner = self.span("independence.integer_rank", fn)

        @functools.wraps(fn)
        def wrapper(rows):
            t0 = time.perf_counter()
            rows = list(rows)
            cols: set = set()
            for r in rows:
                cols.update(r if isinstance(r, dict) else (i for i, v in enumerate(r) if v))
            self.counts["independence.rank.rows"] += len(rows)
            self.counts["independence.rank.cols"] += len(cols)
            self._exclude(time.perf_counter() - t0)
            return inner(rows)

        return wrapper

    # -- installation and read-out ----------------------------------------

    def install(self) -> None:
        """Wrap the entry points of every layer of an imported straightlaw."""
        from straightlaw import (bideterminants, cli, independence, indexsets, polynomials,
                                 standard, straightening)

        modules = [m for k, m in sys.modules.items() if k == "straightlaw" or k.startswith("straightlaw.")]

        def rebind(original, wrapped):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        def rebind_method(cls, original, wrapped):
            for key, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, key, wrapped)

        IndexSet = indexsets.IndexSet
        IndexSet.__init__ = self.count("indexsets.IndexSet.new", IndexSet.__init__)
        for name in ("leq", "complement", "is_good"):
            original = getattr(indexsets, name)
            rebind(original, self.count(f"indexsets.{name}.calls", original))
        rebind(indexsets.subsets_between,
               self.count_yields("indexsets.subsets.yielded", indexsets.subsets_between))

        Polynomial = polynomials.Polynomial
        rebind_method(Polynomial, Polynomial.__mul__,
                      self.span("polynomials.mul", Polynomial.__mul__, self._after_mul))
        rebind_method(Polynomial, Polynomial.__add__, self.span("polynomials.add", Polynomial.__add__))

        rebind(bideterminants.check_relation,
               self.span("bideterminants.check_relation", bideterminants.check_relation,
                         self._after_check_relation))
        rebind(bideterminants.relation_family,
               self.span_generator("bideterminants.relation_family", bideterminants.relation_family))

        for name in ("straighten_laplace", "straighten_pair"):
            original = getattr(straightening, name)
            rebind(original, self.span(f"straightening.{name}", original, self._after_straighten))

        rebind(standard.normal_form, self.span("standard.normal_form", standard.normal_form))

        rebind(independence.integer_rank, self._rank_wrapper(independence.integer_rank))
        rebind(independence.polynomial_rank,
               self.span("independence.polynomial_rank", independence.polynomial_rank))
        for name in ("word_leading_witness", "decode_leading"):
            original = getattr(independence, name)
            rebind(original, self.span("independence.witness", original))

        rebind(cli.main, self.span("cli.main", cli.main))
        rebind(cli.build_certificate, self.span("cli.build_certificate", cli.build_certificate))

    def metrics(self, wall_s: float) -> dict:
        """Every per-layer metric, with cache sizes read at call time; wall_s
        is the traced timed section, of which the part outside every span is
        reported too."""
        from straightlaw import bideterminants, standard, straightening

        out: dict = {}
        for name in ("indexsets.IndexSet.new", "indexsets.leq.calls", "indexsets.complement.calls",
                     "indexsets.is_good.calls", "indexsets.subsets.yielded",
                     "polynomials.mul.term_pairs", "bideterminants.sigma.perm_visits",
                     "straightening.terms_out", "independence.rank.rows",
                     "independence.rank.cols"):
            out[name] = self.counts[name]
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        laplace_terms = self.counts["straightening.pair.laplace_terms"]
        out["straightening.pair.kept_ratio"] = (
            self.counts["straightening.pair.kept_terms"] / laplace_terms if laplace_terms else 0.0
        )
        for name, cached in (("bideterminants.expand_minor", bideterminants._expand_minor),
                             ("bideterminants.matching_perms", bideterminants._matching_perms_cached),
                             ("standard.expand_word", standard.expand_word)):
            info = cached.cache_info()
            out[f"{name}.hits"] = info.hits
            out[f"{name}.misses"] = info.misses
        out["straightening.cache.entries"] = len(straightening._STRAIGHTEN_CACHE)
        out["standard.nf_cache.entries"] = len(standard._NF_CACHE)
        out["trace.outside_spans_s"] = wall_s - sum(self.self_s.values())
        return out
