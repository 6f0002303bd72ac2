"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces every module binding of each traced function
(``cli``, ``witness`` and ``renorm`` import them by name) with a wrapper
that records a span: name, start, end, parent span, job and thread.  The
harness opens one root span per job, named ``cli.<subcommand>``; spans
opened in the sweep's pool threads, which have no parent of their own,
hang off that root.  ``cexpm1`` and ``clog1p`` run thousands of times
per certificate build, so they are only counted.

Spans stay in memory; ``drain`` hands them over after each traced pass
and ``summarize`` turns one pass into per-layer numbers.  A span's self
time is its duration minus the union of its children's intervals, so
overlapping children from pool threads are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time
from typing import NamedTuple

PACKAGE = "semigroup_lab"
LAYERS = ("spaces", "projections", "trotter", "witness", "renorm", "serialize", "config", "cli")

SPANNED = {
    "spaces": ("semigroup_apply", "semigroup_defect"),
    "projections": ("project", "random_oblique_projection"),
    "trotter": ("dense_trotter_apply", "bounded_limit_oracle", "scalar_trotter_value", "step_derivative"),
    "witness": (
        "build_certificate",
        "verify_certificate",
        "choose_step_count",
        "stability_radius",
        "validate_stability",
        "product_log_value",
    ),
    "renorm": ("quasi_contractivity_audit", "classical_renorm_value", "split_norm"),
    "serialize": ("save_json", "load_json", "cert_from_dict", "report_from_dict"),
    "config": ("load_config",),
}
COUNTED = {"spaces": ("cexpm1", "clog1p")}


def _audit_name(args, kwargs) -> str:
    # one span name per audit kind: renorm.classical / renorm.split
    return f"renorm.{args[0] if args else kwargs['kind']}"


def _steps(args, kwargs) -> int:
    return args[4] if len(args) > 4 else kwargs["n"]


def _bytes_written(args, kwargs) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


NAMERS = {"renorm.quasi_contractivity_audit": _audit_name}
WORK = {"trotter.dense_trotter_apply": _steps, "serialize.save_json": _bytes_written}

# Functions whose spans make up one sweep trial's work.
TRIAL_WORK = (
    "trotter.dense_trotter_apply",
    "trotter.bounded_limit_oracle",
    "projections.random_oblique_projection",
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int
    job: str
    thread: int
    ok: bool
    work: int
    cpu: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, int], int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._job = ""
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, fn, name, namer, work, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        ok = False
        start = perf_counter()
        cpu = thread_time()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            cpu = thread_time() - cpu
            end = perf_counter()
            stack.pop()
            self.spans.append(
                Span(
                    sid,
                    namer(args, kwargs) if namer else name,
                    start,
                    end,
                    parent,
                    self._job,
                    threading.get_ident(),
                    ok,
                    work(args, kwargs) if work and ok else 0,
                    cpu,
                )
            )

    def _spanned(self, name: str, fn):
        namer, work = NAMERS.get(name), WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(fn, name, namer, work, args, kwargs)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # one key per thread, so concurrent threads never share an update
            key = (name, threading.get_ident())
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for kinds, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, names in kinds.items():
                source = sys.modules[f"{PACKAGE}.{module}"]
                for fname in names:
                    original = getattr(source, fname)
                    wrapper = make(f"{module}.{fname}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._patches.append((m, attr, original))
                                setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def job(self, job: str, name: str):
        """Root span of one job; pool-thread spans without a parent attach here."""
        self._job = job
        sid = next(self._ids)
        self._root = sid
        stack = self._stack()
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, 0, job, threading.get_ident(), True, 0, 0.0))
            self._root = 0

    def drain(self) -> tuple[list[Span], dict[str, int]]:
        spans, self.spans = self.spans, []
        totals: dict[str, int] = defaultdict(int)
        for (name, _), n in self.counts.items():
            totals[name] += n
        self.counts.clear()
        return spans, dict(totals)


def union_length(intervals, lo: float = -float("inf"), hi: float = float("inf")) -> float:
    """Total length covered by intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(
    spans: list[Span],
    counts: dict[str, int],
    wall: float,
    pool_size: int,
    dense_audit_jobs: set[str],
) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    Returns calls, busy_s (summed span time; pool threads add up), self_s
    and work per span name, self time per layer, and the derived ratios
    the predictions name.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        self_s = s.seconds - union_length(
            ((c.start, c.end) for c in children[s.sid]), s.start, s.end
        )
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.busy_s"] += s.seconds
        out[f"{s.name}.self_s"] += self_s
        out[f"layer.{s.name.split('.')[0]}.self_s"] += self_s
        if s.work:
            out[f"{s.name}.work"] += s.work
    for name, n in counts.items():
        out[f"{name}.calls"] += n
    out["trotter.dense_trotter_apply.steps"] = out.pop("trotter.dense_trotter_apply.work", 0.0)
    out["serialize.bytes_written"] = out.pop("serialize.save_json.work", 0.0)

    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    dense = by_name["trotter.dense_trotter_apply"]
    out["trotter.dense_trotter_apply.share"] = (
        union_length((s.start, s.end) for s in dense) / wall if wall > 0 else 0.0
    )

    choose = {s.sid for s in by_name["witness.choose_step_count"]}
    accepted = sum(1 for s in by_name["witness.choose_step_count"] if s.ok)
    attempts = sum(1 for s in by_name["witness.product_log_value"] if s.parent in choose)
    out["witness.choose_step_count.scan_ratio"] = attempts / accepted if accepted else 0.0

    # Trial work is measured in thread CPU time: a pool thread waiting for
    # the interpreter lock is not busy, so GIL-bound trials on a pool of
    # k threads read near 1/k.
    sweeps = {root.job: root.seconds * max(1, pool_size) for root in by_name["cli.sweep"]}
    busy = sum(s.cpu for s in spans if s.job in sweeps and s.name in TRIAL_WORK)
    capacity = sum(sweeps.values())
    out["cli.sweep.pool_efficiency"] = busy / capacity if capacity else 0.0

    audit_wall = sum(s.seconds for s in spans if s.parent == 0 and s.job in dense_audit_jobs)
    applied = union_length(
        (s.start, s.end) for s in by_name["spaces.semigroup_apply"] if s.job in dense_audit_jobs
    )
    out["spaces.semigroup_apply.dense_audit_share"] = applied / audit_wall if audit_wall else 0.0
    return dict(out)


PREDICTIONS = {
    "dense-products": "trotter.dense_trotter_apply holds most of the pass (share > 0.5)",
    "blowup-ladders": "trotter.dense_trotter_apply is never called",
    "renorm-audits": "trotter.dense_trotter_apply is never called, and "
    "spaces.semigroup_apply holds most of the dense classical audits (share > 0.5)",
}


def prediction_met(workload: str, layer: dict[str, float]) -> bool:
    """The predicted layer split, checked on one workload's per-pass numbers."""
    calls = layer.get("trotter.dense_trotter_apply.calls", 0.0)
    if workload == "dense-products":
        return layer.get("trotter.dense_trotter_apply.share", 0.0) > 0.5
    if workload == "renorm-audits":
        return calls == 0 and layer.get("spaces.semigroup_apply.dense_audit_share", 0.0) > 0.5
    return calls == 0
