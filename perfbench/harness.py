"""Workload-independent parts of the benchmark: the closed job loop, the
speed probe, the percentile rules, the span tracer and the run-record
context.

Nothing here imports numpy or conclab at import time, so ``run.py`` can
pin the BLAS thread count before either is loaded.
"""

from __future__ import annotations

import inspect
import math
import os
import platform
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

TAIL_BEYOND = 10
# Job times are reported as if the speed probe took this long.
PROBE_REF_S = 0.0025


@dataclass
class Job:
    """One verification job: ``run`` is timed, ``check`` is not.

    ``check(out)`` returns a list of failure messages (empty when the
    verdict and every cross-check agree) and a dict of extra values.
    """

    kind: str
    run: object
    check: object


@dataclass
class JobResult:
    """``seconds`` is the wall time; ``scaled_s`` rescales it by the speed
    probes run just before and just after the job."""

    index: int
    kind: str
    seconds: float
    failures: list
    extras: dict = field(default_factory=dict)
    probe_s: float = 0.0
    scaled_s: float = 0.0


def speed_probe():
    """Median of three wall times of a fixed piece of CPU work: a Python
    loop and small LAPACK calls, the mix conclab's jobs are made of.

    The benchmark shares its machine, whose speed drifts by tens of
    percent within minutes; a probe next to each job measures that drift.
    """
    import numpy as np

    m = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5.0
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(3000):
            acc += i * 0.5
        for _ in range(100):
            acc += float(np.linalg.eigh(m)[0][0])
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def run_jobs(jobs, seconds, cycle, tracer=None, indices=None, probe=speed_probe):
    """Closed loop, one client: each job starts when the previous verdict
    (and its untimed check) returns.

    Runs whole cycles of ``cycle`` jobs, at least one, until the summed
    job time reaches ``seconds``, walking ``jobs`` in order and wrapping at
    its end.  With ``indices`` it replays exactly those pool positions.
    ``probe`` runs, untimed, before every job and once after the last.
    """
    results = []
    busy = 0.0
    i = 0
    while True:
        if indices is None:
            if i and i % cycle == 0 and busy >= seconds:
                break
            index = i
        else:
            if i == len(indices):
                break
            index = indices[i]
        job = jobs[index % len(jobs)]
        before = probe()
        out = None
        error = None
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception:  # a job that raises counts as failed; the loop goes on
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            failures, extras = job.check(out)
        else:
            failures, extras = [error], {}
        results.append(JobResult(index, job.kind, dt, list(failures), extras, before))
        busy += dt
        i += 1
    # rescale to a machine on which the probe takes PROBE_REF_S
    after = [r.probe_s for r in results[1:]] + [probe()]
    for r, a in zip(results, after):
        r.scaled_s = r.seconds * PROBE_REF_S / (0.5 * (r.probe_s + a))
    return results


def lower_median(values):
    """Nearest-rank median: the ceil(n/2)-th smallest value and its position."""
    order = sorted(range(len(values)), key=values.__getitem__)
    pos = order[math.ceil(len(values) / 2) - 1]
    return values[pos], pos


def tail_percentile(values, beyond=TAIL_BEYOND):
    """Highest nearest-rank percentile with at least ``beyond`` values above it.

    Returns (value, percentile, position).  The value is the
    (n - beyond)-th smallest, so exactly ``beyond`` samples lie beyond it.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for the tail, got {n}")
    order = sorted(range(n), key=values.__getitem__)
    k = n - beyond
    pos = order[k - 1]
    return values[pos], 100.0 * k / n, pos


class Tracer:
    """Aggregated spans keyed by (parent span name, span name).

    Each entry holds [calls, inclusive seconds, self seconds]; self time is
    the span's duration minus the durations of its direct children.
    ``counts`` collects per-call counters filled by result hooks.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}
        self.counts = {}
        self.active = False
        self._stack = []

    def wrap(self, name, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.clock() - t0
                tracer._stack.pop()
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[1] += dur
                rec = tracer.spans.setdefault((parent and parent[0], name), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if hook is not None:
                hook(tracer.count, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def totals(self):
        """{span name: [calls, self seconds]}, summed over parents."""
        out = {}
        for (_, name), (calls, _incl, self_s) in self.spans.items():
            agg = out.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += self_s
        return out


def install(tracer, layers, extra=(), hooks=None):
    """Wrap every function named in each layer module's ``__all__``.

    ``layers`` maps a layer name to its module; ``extra`` lists further
    (owner, attribute, span name) triples such as methods.  Returns the
    list needed by ``uninstall``.
    """
    hooks = hooks or {}
    targets = []
    for layer, module in layers.items():
        for attr in module.__all__:
            if inspect.isfunction(getattr(module, attr)):
                targets.append((module, attr, f"{layer}.{attr}"))
    targets.extend(extra)
    saved = []
    for owner, attr, name in targets:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, hooks.get(name)))
    return saved


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def git_commit(root):
    """Commit of a git checkout read from .git without running git; None elsewhere."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_lines(src):
    return sum(len(p.read_text().splitlines()) for p in sorted(Path(src).rglob("*.py")))


def run_context(root, blas_threads):
    import numpy
    import scipy

    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "src_lines": source_lines(Path(root) / "src"),
    }
