"""In-memory span recording around the public calls of each layer.

The benchmark wraps functions and methods of the shipped program from
the outside (nothing under ``src/`` knows it is being traced).  Every
wrapped call records one span — name, start, end, parent — in a list
owned by the calling thread, so recording takes no lock.  A span's
parent is the innermost span open on the same thread; spans opened on a
thread with nothing open are roots.  Self time is a span's duration
minus the durations of its children, so the self times of one tree sum
to its root's duration.

Worker processes the parallel runner forks (on Linux) inherit the
wrappers.  Each child starts with empty span lists and writes its
spans to ``<spill_dir>/spans-<pid>.json`` when it exits normally; the
parent folds those files in with :meth:`Tracer.absorb_spills`.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Tracer", "self_times"]

_INHERITED = object()

# One span: [name, start, end, parent index or -1].  Indices are local
# to the thread's span list.
Span = list


class _ThreadSpans:
    __slots__ = ("thread", "spans", "stack", "counts", "depth")

    def __init__(self, thread: str):
        self.thread = thread
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.depth: Counter[str] = Counter()


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span of one thread's list, in list order."""
    own = [s[2] - s[1] for s in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


class Tracer:
    """Records spans and counters; installs and removes the wrappers."""

    def __init__(self, spill_dir: str | Path | None = None):
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._absorbed: list[dict[str, Any]] = []
        self._pid = os.getpid()
        # Runs in multiprocessing children after the module's own
        # after-fork clean-up (which drops finalizers registered earlier).
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording --------------------------------------------------------

    def _mine(self) -> _ThreadSpans:
        mine = getattr(self._local, "spans", None)
        if mine is None:
            mine = _ThreadSpans(threading.current_thread().name)
            self._local.spans = mine
            with self._threads_lock:
                self._threads.append(mine)
        return mine

    def open(self, name: str) -> int:
        mine = self._mine()
        index = len(mine.spans)
        parent = mine.stack[-1] if mine.stack else -1
        mine.spans.append([name, time.perf_counter(), 0.0, parent])
        mine.stack.append(index)
        return index

    def close(self, index: int) -> float:
        """End span ``index``; returns its duration in seconds."""
        mine = self._local.spans
        span = mine.spans[index]
        span[2] = time.perf_counter()
        mine.stack.pop()
        return span[2] - span[1]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, n: int = 1) -> None:
        self._mine().counts[name] += n

    # -- wrapping ---------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[[tuple, dict, Any, float], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper (undone by :meth:`uninstall`).

        ``after(args, kwargs, result, elapsed)`` runs once the call
        returns, for counters read off arguments or results.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = self.close(index)
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        self._patch(owner, attr, traced)

    def wrap_function(self, func: Callable, name: str, **kwargs: Any) -> None:
        """Wrap a module-level function in every ``repro`` module that bound it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.wrap(module, attr, name, **kwargs)

    def counting(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that counts calls under ``name``.

        Calls made from inside another counted call of the same name
        (a composite delegating to its members) are not counted again.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            mine = self._mine()
            depth = mine.depth
            if depth[name] == 0:
                mine.counts[name] += 1
            depth[name] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[name] -= 1

        self._patch(owner, attr, counted)

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        # An inherited method is shadowed, then un-shadowed on uninstall.
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- forked workers ---------------------------------------------------

    def _after_fork(self) -> None:
        self._pid = os.getpid()
        self._local = threading.local()
        self._threads = []
        self._threads_lock = threading.Lock()
        self._absorbed = []
        if self.spill_dir is not None:
            multiprocessing.util.Finalize(self, self._spill, exitpriority=100)

    def _spill(self) -> None:
        assert self.spill_dir is not None
        path = self.spill_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._export()))
        os.replace(tmp, path)

    def absorb_spills(self) -> None:
        """Fold in the span files of exited workers."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            self._absorbed.append(json.loads(path.read_text()))
            path.unlink()

    # -- reading ----------------------------------------------------------

    def threads(self) -> Iterable[tuple[str, list[Span]]]:
        """``(label, spans)`` for every thread, absorbed workers included."""
        with self._threads_lock:
            local = list(self._threads)
        for mine in local:
            yield f"{self._pid}/{mine.thread}", mine.spans
        for data in self._absorbed:
            for label, spans in data["threads"]:
                yield f"{data['pid']}/{label}", spans

    def _export(self) -> dict[str, Any]:
        with self._threads_lock:
            local = list(self._threads)
        return {
            "pid": os.getpid(),
            "counts": sum((mine.counts for mine in local), Counter()),
            "threads": [[mine.thread, mine.spans] for mine in local],
        }

    @property
    def counts(self) -> Counter[str]:
        """Every counter summed over threads and absorbed workers."""
        with self._threads_lock:
            total = sum((mine.counts for mine in self._threads), Counter())
        for data in self._absorbed:
            total.update(data["counts"])
        return total

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for _, spans in self.threads():
            own = self_times(spans)
            for span, self_s in zip(spans, own):
                row = out[span[0]]
                row["calls"] += 1
                row["total_s"] += span[2] - span[1]
                row["self_s"] += self_s
        return dict(out)

    def write(self, path: str | Path) -> None:
        """Write every span (name, start, end, parent) and counter as JSON."""
        data = {
            "counts": dict(self.counts),
            "threads": [
                {"thread": label, "spans": spans} for label, spans in self.threads()
            ],
        }
        Path(path).write_text(json.dumps(data, separators=(",", ":")))
