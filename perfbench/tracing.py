"""Spans around groupapprox's public functions, installed from outside.

``Tracer.install`` replaces each traced name where its caller looks it up
(a module attribute, a name imported into another module, or a method on
``FiniteGroup``) with a wrapper that records a span: name, start, end and
parent.  Spans stay in memory until ``uninstall``; ``summary`` turns them
into per-module metrics and ``dump`` writes them out.

Three kinds of wrapper keep the cost down where calls are many:

* ``elements`` and ``conjugacy_classes`` open a span only on a cold cache,
  which is when they enumerate, sort or partition;
* ``evaluate_word`` is a leaf (it calls nothing traced), so its calls are
  aggregated per parent span as (calls, seconds) instead of one record each;
* ``iter_consequence_class_layers`` gets one span per ``next()``.

Per-product calls such as ``Permutation.__mul__`` are never wrapped; the
``perm.*`` microbenchmarks in ``micro.py`` cover that module.
"""

from __future__ import annotations

import json
import time
from functools import wraps

from groupapprox import approximation, catalog, cli, coverage, equations, groups, lengths, report, words
from groupapprox.groups import FiniteGroup

_clock = time.perf_counter

# span name -> metric reported for the time inside it (outermost spans only)
TIMED = {
    "groups.elements": "groups.elements_s",
    "groups.classes": "groups.classes_s",
    "groups.class_rep": "groups.class_rep_s",
    "groups.layer_step": "groups.layer_step_s",
    "groups.separate": "groups.separate_s",
    "coverage.first_depths": "coverage.first_depths_s",
    "coverage.support_cover": "coverage.support_cover_s",
    "coverage.brenner": "coverage.brenner_s",
    "lengths.verify_axioms": "lengths.verify_axioms_s",
    "lengths.cayley": "lengths.cayley_s",
    "words.evaluate_word": "words.evaluate_word_s",
    "equations.solvable_in": "equations.solvable_in_s",
    "equations.solvable_over": "equations.solvable_over_s",
    "equations.embedding_check": "equations.embedding_check_s",
    "approximation.search": "approximation.search_s",
    "approximation.check": "approximation.check_s",
    "report.dump": "report.dump_s",
    "report.load": "report.load_s",
    "catalog.resolve": "catalog.resolve_s",
}
COUNTED = (
    "groups.groups_built",
    "groups.class_rep_calls",
    "groups.layer_steps",
    "coverage.class_pairs",
    "lengths.pairs_checked",
    "words.evaluate_word_calls",
    "equations.scan_size",
    "approximation.assignments",
    "report.dump_bytes",
    "report.load_bytes",
)
MODULES = ("cli", "groups", "coverage", "lengths", "words", "equations", "approximation", "report", "catalog")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.leaves = {}  # (name, parent index) -> [calls, seconds]
        self.counts = dict.fromkeys(COUNTED, 0)
        self._stack = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, count=None, cold=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if cold is not None and not cold(args[0]):
                return fn(*args, **kwargs)
            rec = [name, _clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = _clock()
            if count is not None:
                key, value = count
                counts[key] += value(args, result)
            return result

        return wrapper

    def _leaf(self, name, fn, calls):
        leaves, stack, counts = self.leaves, self._stack, self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            result = fn(*args, **kwargs)
            elapsed = _clock() - start
            key = (name, stack[-1] if stack else -1)
            acc = leaves.get(key)
            if acc is None:
                leaves[key] = [1, elapsed]
            else:
                acc[0] += 1
                acc[1] += elapsed
            counts[calls] += 1
            return result

        return wrapper

    def _steps(self, name, fn, calls):
        span = self._span(name, next, count=(calls, lambda args, result: 1))

        @wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = span(it)
                    except StopIteration:
                        return
                    yield item
            finally:
                it.close()

        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owners, attr, wrapped):
        for owner in owners:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    # -- install / uninstall --------------------------------------------------

    def install(self):
        span, patch = self._span, self._patch

        def rows(args, table):
            return len(table.rows)

        def pairs(args, rep):
            return rep.pairs_checked

        def assignments(args, outcome):
            return outcome.stats.assignments

        def scan(args, rep):
            return rep.constants_domain * rep.variables_domain

        def dumped(args, text):
            return len(text.encode("utf-8"))

        def loaded(args, data):
            return len(args[0].encode("utf-8"))

        patch([cli], "run", span("cli.run", cli.run))

        patch([FiniteGroup], "__init__", self._counter(FiniteGroup.__init__, "groups.groups_built"))
        patch([FiniteGroup], "elements",
              span("groups.elements", FiniteGroup.elements, cold=lambda G: G._elements is None))
        patch([FiniteGroup], "conjugacy_classes",
              span("groups.classes", FiniteGroup.conjugacy_classes, cold=lambda G: G._classes is None))
        patch([FiniteGroup], "class_representative",
              span("groups.class_rep", FiniteGroup.class_representative,
                   count=("groups.class_rep_calls", lambda args, result: 1)))
        patch([groups, coverage], "iter_consequence_class_layers",
              self._steps("groups.layer_step", groups.iter_consequence_class_layers, "groups.layer_steps"))
        patch([groups, cli, coverage], "consequences", span("groups.separate", groups.consequences))
        patch([groups, cli, approximation], "is_n_separated", span("groups.separate", groups.is_n_separated))

        patch([coverage], "class_first_depths", span("coverage.first_depths", coverage.class_first_depths))
        patch([coverage], "verify_support_cover", span("coverage.support_cover", coverage.verify_support_cover))
        patch([coverage], "support_cover_sweep", span("coverage.support_cover", coverage.support_cover_sweep))
        patch([coverage], "verify_brenner_bound", span("coverage.brenner", coverage.verify_brenner_bound))
        patch([coverage], "empirical_covering_constant",
              span("coverage.covering", coverage.empirical_covering_constant,
                   count=("coverage.class_pairs", rows)))

        patch([lengths], "verify_axioms",
              span("lengths.verify_axioms", lengths.verify_axioms, count=("lengths.pairs_checked", pairs)))
        patch([lengths], "cayley_conjugation_length", span("lengths.cayley", lengths.cayley_conjugation_length))

        patch([words, approximation, equations], "evaluate_word",
              self._leaf("words.evaluate_word", words.evaluate_word, "words.evaluate_word_calls"))

        patch([equations], "solvable_in",
              span("equations.solvable_in", equations.solvable_in, count=("equations.scan_size", scan)))
        patch([equations], "solvable_over_bounded",
              span("equations.solvable_over", equations.solvable_over_bounded,
                   count=("equations.scan_size", scan)))
        patch([equations.Embedding], "check", span("equations.embedding_check", equations.Embedding.check))
        patch([equations], "diagonal_embedding", span("equations.embedding", equations.diagonal_embedding))
        patch([equations], "sys_membership", span("equations.sys_membership", equations.sys_membership))
        patch([equations], "parse_equation_system", span("equations.parse", equations.parse_equation_system))

        for name in ("search_separating_hom", "search_sofic_instance"):
            patch([approximation], name,
                  span("approximation.search", getattr(approximation, name),
                       count=("approximation.assignments", assignments)))
        for name in ("check_consequence_instance", "check_metric_instance", "verify_sofic_certificate"):
            patch([approximation], name, span("approximation.check", getattr(approximation, name)))
        patch([approximation], "parse_presentation", span("approximation.parse", approximation.parse_presentation))

        patch([report, cli], "dump_report",
              span("report.dump", report.dump_report, count=("report.dump_bytes", dumped)))
        patch([report, cli], "load_report",
              span("report.load", report.load_report, count=("report.load_bytes", loaded)))
        for name in ("certificate_from_data", "sofic_certificate_from_data"):
            patch([report, cli], name, span("report.decode", getattr(report, name)))

        patch([catalog, cli], "resolve_group", span("catalog.resolve", catalog.resolve_group))
        patch([catalog, cli], "load_catalog_file", span("catalog.resolve", catalog.load_catalog_file))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def summary(self, wall_s):
        """Per-module metrics of one traced pass whose wall time was wall_s.

        ``<name>_s`` sums the spans of that name that have no ancestor of
        the same name.  ``<module>.self_s`` is the time inside the module's
        spans not covered by their child spans; with ``unattributed_s``
        (harness time outside every span) the self times sum to wall_s.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for (name, parent), (calls, seconds) in self.leaves.items():
            if parent >= 0:
                covered[parent] += seconds
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = dict.fromkeys(MODULES, 0.0)
        timed = dict.fromkeys(TIMED.values(), 0.0)
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name.split(".", 1)[0]] += end - start - covered[i]
            if name in TIMED and not self._has_ancestor(i, name):
                timed[TIMED[name]] += end - start
        for (name, parent), (calls, seconds) in self.leaves.items():
            self_s[name.split(".", 1)[0]] += seconds
            timed[TIMED[name]] += seconds
        metrics = dict(timed)
        metrics.update(self.counts)
        for module, seconds in self_s.items():
            metrics[f"{module}.self_s"] = seconds
        metrics["unattributed_s"] = wall_s - sum(self_s.values())
        metrics["trace.wall_s"] = wall_s
        return metrics

    def _has_ancestor(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path):
        """Write the spans and aggregated leaf calls as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
                    ],
                    "leaves": [
                        {"name": n, "parent": p, "calls": c, "seconds": t}
                        for (n, p), (c, t) in self.leaves.items()
                    ],
                },
                fh,
            )
