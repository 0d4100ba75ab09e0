"""Per-layer tracing from outside the package.

The tracer replaces names where the engine looks them up (module globals
and class attributes) with wrappers that time each call. Spans are kept in
memory as per-name aggregates: call count, total seconds, self seconds
(total minus the time covered by nested spans) and, for ``Archive.observe``,
how many offers were stored. Nothing inside ``src/`` is edited.

Engine spans are collected per run by :meth:`Tracer.traced_run`, which
attaches them to the returned ``RunRecord``. The attribute travels back
with the pickled record when the run executes in a worker process forked
from a traced parent, so one merge path serves in-process and pooled runs.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from time import perf_counter

SPANS_ATTR = "perfbench_spans"

# Aggregate slots: [calls, total_s, self_s, stored].
CALLS, TOTAL, SELF, STORED = range(4)


def _new_entry():
    return [0, 0.0, 0.0, 0]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []  # child time covered inside each open span

    def wrap(self, name, fn, count_stored=False):
        def traced(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                entry = self.stats.get(name)
                if entry is None:
                    entry = self.stats[name] = _new_entry()
                entry[CALLS] += 1
                entry[TOTAL] += elapsed
                entry[SELF] += elapsed - child
                if count_stored and result:
                    entry[STORED] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    def merge(self, spans: dict):
        for name, src in spans.items():
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = _new_entry()
            for slot in range(len(entry)):
                entry[slot] += src[slot]

    def traced_run(self, real_run, config, objective, timing=True):
        """Run once with a wrapped ``evaluate``; spans ride on the record."""
        objective = dataclasses.replace(
            objective, evaluate=self.wrap("objectives.evaluate", objective.evaluate)
        )
        saved = self.stats, self._stack
        self.stats, self._stack = {}, []
        try:
            record = self.wrap("run", real_run)(config, objective, timing)
        finally:
            spans = self.stats
            self.stats, self._stack = saved
        setattr(record, SPANS_ATTR, spans)
        return record


def engine_targets():
    """(owner, attribute, span name, counts stored) for every engine layer."""
    import qswarm.archive
    import qswarm.surrogate
    import qswarm.swarm

    archive = qswarm.archive.Archive
    swarm = qswarm.swarm.Swarm
    return [
        (swarm, "__init__", "swarm.init", False),
        (swarm, "step", "swarm.step", False),
        # Bound into qswarm.swarm at import, so patched there.
        (qswarm.swarm, "surrogate_attractor", "surrogate.attractor", False),
        (qswarm.surrogate, "fit", "surrogate.fit", False),
        (qswarm.surrogate, "minimize", "surrogate.minimize", False),
        (archive, "observe", "archive.observe", True),
        (archive, "sorted_points", "archive.sorted_points", False),
        (archive, "best", "archive.best", False),
    ]


@contextmanager
def patched(tracer: Tracer, targets, replacements=()):
    """Install wrappers for ``targets`` plus ready-made ``replacements``.

    ``replacements`` are (owner, attribute, callable) triples installed as
    given. Every original is restored on exit.
    """
    saved = []
    try:
        for owner, attr, name, count_stored in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count_stored))
        for owner, attr, replacement in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
