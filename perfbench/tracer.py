"""Span recorders patched around the program's public entry points.

A traced run imports this module in the process doing the work (the
``launcher.py`` server or the build worker), calls :func:`install`, and
dumps :attr:`Recorder.spans` when the work drains.  Each recorder is
installed at the name its caller looks up — a module attribute such as
``repro.engine.session.make_ordering``, or a method on the class that
defines it — so the program itself is unchanged.

A span is ``[id, parent, name, start, end, thread, request_id, attrs]``
with ``time.perf_counter`` ends (CLOCK_MONOTONIC on Linux, so the client
process can place its phase boundaries on the same clock).  Spans on one
thread nest through a thread-local stack; the scheduler turnaround span
opens on the handler thread and closes on the scheduler thread when the
future resolves.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Optional

# Index of each field in a span record.
ID, PARENT, NAME, START, END, THREAD, RID, ATTRS = range(8)


class Recorder:
    """In-memory span store with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: Optional[dict] = None, *, rid: str = "") -> list[Any]:
        """Start a span nested under this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [
            next(self._ids),
            parent[ID] if parent else 0,
            name,
            time.perf_counter(),
            None,
            threading.get_ident(),
            rid or (parent[RID] if parent else ""),
            attrs or {},
        ]
        self.spans.append(span)
        return span

    def enter(self, name: str, attrs: Optional[dict] = None, *, rid: str = "") -> list[Any]:
        """Open a span and make it the parent of this thread's next spans."""
        span = self.open(name, attrs, rid=rid)
        self._stack().append(span)
        return span

    def leave(self, span: list[Any]) -> None:
        """Close the innermost span opened with :meth:`enter`."""
        span[END] = time.perf_counter()
        self._stack().pop()

    def wrap(
        self,
        name: str,
        func: Callable,
        describe: Optional[Callable[[tuple, dict, Any], dict]] = None,
    ) -> Callable:
        """``func`` timed as span ``name``; ``describe`` adds attributes."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.leave(span)
            if describe is not None:
                span[ATTRS] = describe(args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (atomic rename)."""
        partial = f"{path}.partial"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)
        os.replace(partial, path)


def _file_bytes(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _patch_method(recorder: Recorder, cls: type, attr: str, name: str, describe=None) -> None:
    """Wrap ``cls.attr`` in place, keeping a classmethod a classmethod."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(recorder.wrap(name, raw.__func__, describe)))
    else:
        setattr(cls, attr, recorder.wrap(name, raw, describe))


def _patch_function(recorder: Recorder, module: Any, attr: str, name: str, describe=None):
    setattr(module, attr, recorder.wrap(name, getattr(module, attr), describe))


def install(recorder: Recorder, *, serving: bool) -> None:
    """Install every recorder; ``serving`` adds the HTTP/scheduler/registry ones."""
    import repro.engine.cache as cache_mod
    import repro.engine.session as session_mod
    import repro.graph.delta as delta_mod
    import repro.histogram.builder as histogram_mod
    import repro.ordering.base as ordering_mod
    import repro.paths.catalog as catalog_mod

    session_cls = session_mod.EstimationSession
    _patch_method(
        recorder,
        session_cls,
        "build",
        "session.build",
        lambda a, k, r: {"warm": bool(r.stats.catalog_from_cache)},
    )
    _patch_method(recorder, session_cls, "update", "session.update")
    _patch_method(
        recorder,
        session_cls,
        "estimate_batch",
        "session.estimate_batch",
        lambda a, k, r: {"paths": len(r)},
    )
    # graph_digest is imported by name into each caller's module.
    _patch_function(recorder, session_mod, "graph_digest", "fingerprint.graph_digest")
    _patch_function(recorder, session_mod, "affected_first_labels", "delta.affected_first_labels")
    _patch_function(recorder, session_mod, "make_ordering", "ordering.make_ordering")
    _patch_function(recorder, session_mod, "build_histogram", "histogram.build_histogram")
    _patch_function(recorder, session_mod, "domain_frequencies", "histogram.domain_frequencies")
    _patch_method(recorder, delta_mod.GraphDelta, "apply", "delta.apply")
    catalog_cls = catalog_mod.SelectivityCatalog
    _patch_method(recorder, catalog_cls, "from_graph", "paths.from_graph")
    _patch_method(recorder, catalog_cls, "apply_delta", "paths.apply_delta")
    _patch_method(
        recorder,
        ordering_mod.Ordering,
        "index_array",
        "ordering.index_array",
        lambda a, k, r: {"full": len(a) < 2 and k.get("paths") is None, "paths": len(r)},
    )
    _patch_method(
        recorder,
        histogram_mod.LabelPathHistogram,
        "estimate_indices",
        "histogram.estimate_indices",
        lambda a, k, r: {"paths": len(r)},
    )
    cache_cls = cache_mod.ArtifactCache
    for kind in ("catalog", "histogram", "positions"):
        _patch_method(
            recorder,
            cache_cls,
            f"store_{kind}",
            "cache.store",
            lambda a, k, r, kind=kind: {"kind": kind, "bytes": _file_bytes(r)},
        )
        _patch_method(
            recorder,
            cache_cls,
            f"load_{kind}",
            "cache.load",
            lambda a, k, r, kind=kind: {"kind": kind, "hit": r is not None},
        )
    if serving:
        _install_serving(recorder)


def _install_serving(recorder: Recorder) -> None:
    import repro.serving as serving_pkg
    import repro.serving.registry as registry_mod
    import repro.serving.scheduler as scheduler_mod

    registry_cls = registry_mod.SessionRegistry
    _patch_function(recorder, registry_mod, "graph_digest", "fingerprint.graph_digest")
    _patch_method(recorder, registry_cls, "get", "registry.get")
    _patch_method(recorder, registry_cls, "update_graph", "registry.update_graph")

    def submit_many(self, graph, paths, _original=scheduler_mod.EstimateScheduler.submit_many):
        # Turnaround runs from submission until the scheduler resolves the
        # future, on whichever thread resolves it.
        span = recorder.open("scheduler.turnaround", {"paths": len(paths)})
        try:
            future = _original(self, graph, paths)
        except BaseException:
            span[END] = time.perf_counter()
            raise

        def resolved(_future, span=span) -> None:
            span[END] = time.perf_counter()

        future.add_done_callback(resolved)
        return future

    scheduler_mod.EstimateScheduler.submit_many = submit_many

    original_make_server = serving_pkg.make_server

    @functools.wraps(original_make_server)
    def make_server(*args, **kwargs):
        server = original_make_server(*args, **kwargs)
        handler_cls = server.RequestHandlerClass
        if not getattr(handler_cls.do_POST, "__wrapped_by_perfbench__", False):
            original_post = handler_cls.do_POST

            def do_post(handler) -> None:
                rid = (handler.headers.get("X-Request-Id") or "").strip()
                span = recorder.enter("http.request", {"path": handler.path}, rid=rid)
                try:
                    original_post(handler)
                finally:
                    recorder.leave(span)

            do_post.__wrapped_by_perfbench__ = True
            handler_cls.do_POST = do_post
        return server

    serving_pkg.make_server = make_server
