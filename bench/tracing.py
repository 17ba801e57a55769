"""Outside-in tracing: timing and counting wrappers around public semtex
functions, installed from the benchmark without touching src/.

Each wrapped call records a span (name, parent span, start, end, thread
CPU time).  Spans stay in memory; the child process writes them out when
the traced command has finished, and `layer_metrics` turns them into the
per-layer figures.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter
from typing import Callable

# Public names wrapped with a span.  A name is replaced in every semtex
# module namespace that binds it, so calls made inside the package (for
# example tokenize from extract_math) go through the wrapper too.
SPAN_NAMES = (
    "tokenize",
    "extract_math",
    "canonicalize",
    "canonicalize_string",
    "replace_all",
    "detect_constraints",
    "detect_substitutions",
    "inline_substitutions",
    "harvest_names_and_notes",
    "extract_document",
    "render_page",
    "build_symbols_list",
    "emit_dump",
    "stats_report",
    "load_glossary",
    "loads_glossary",
    "run_pipeline",
)

# match_at runs once per rule per position, hundreds of thousands of
# times a run; a span per call would swamp the run, so it only counts.
COUNT_NAMES = ("match_at",)


def _result_counts(name: str, result, counts: Counter) -> None:
    if name == "lexer.tokenize":
        counts["lexer.tokens"] += len(result)
    elif name == "metadata.detect_substitutions":
        counts["metadata.defs"] += len(result)
    elif name == "pages.emit_dump":
        counts["pages.dump_bytes"] += len(result.encode("utf-8"))
    elif name in ("glossary.load_glossary", "glossary.loads_glossary"):
        counts["glossary.rules"] = len(result.rules)


class Tracer:
    """Collects spans and counts from wrapped functions, across threads."""

    def __init__(self) -> None:
        # (span id, parent id, name, start, end, thread cpu seconds)
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # one Counter per thread, so counting needs no lock
        self._thread_counts: list[Counter] = []
        self._replaced: list[tuple[object, str, Callable]] = []

    def _state(self) -> tuple[list[int], Counter]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counts = Counter()
            with self._lock:
                self._thread_counts.append(local.counts)
        return local.stack, local.counts

    @property
    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for c in self._thread_counts:
                total.update(c)
        return total

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, counts = self._state()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, c1 - c0))
            _result_counts(name, result, counts)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        attempts = name + ".attempts"
        hits = name + ".hits"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state()[1]
            result = fn(*args, **kwargs)
            counts[attempts] += 1
            if result is not None:
                counts[hits] += 1
            return result

        return wrapper

    def install(self) -> int:
        """Wrap every binding of the traced names in loaded semtex modules.

        Returns the number of bindings replaced.  Each original function
        gets one wrapper, shared by all namespaces that bind it.
        """
        wrappers: dict[int, Callable] = {}
        modules = [m for n, m in sys.modules.items() if n == "semtex" or n.startswith("semtex.")]
        for mod in modules:
            for attr in SPAN_NAMES + COUNT_NAMES:
                fn = mod.__dict__.get(attr)
                if not callable(fn) or not getattr(fn, "__module__", "").startswith("semtex"):
                    continue
                if id(fn) not in wrappers:
                    name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
                    make = self.count_wrapper if attr in COUNT_NAMES else self.span_wrapper
                    wrappers[id(fn)] = make(name, fn)
                self._replaced.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
        return len(self._replaced)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for mod, attr, fn in reversed(self._replaced):
            setattr(mod, attr, fn)
        self._replaced.clear()


def _inclusive(spans, *names: str) -> float:
    """Total time in spans of `names` that have no ancestor among
    `names`, so a nested call is not counted twice."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for _, parent, n, t0, t1, _ in spans:
        if n not in names:
            continue
        p = parent
        while p and by_id[p][2] not in names:
            p = by_id[p][1]
        if not p:
            total += t1 - t0
    return total


def _self_time(spans, name: str) -> float:
    """Span durations of `name` minus the time their direct children
    cover.  Children run on the caller's thread, one after another, so
    their durations do not overlap."""
    child_time: Counter = Counter()
    for _, parent, _, t0, t1, _ in spans:
        if parent:
            child_time[parent] += t1 - t0
    return sum(
        (t1 - t0) - child_time[sid] for sid, _, n, t0, t1, _ in spans if n == name
    )


# (metric name, span name) pairs reported as inclusive seconds
_INCLUSIVE = (
    ("lexer.tokenize.s", "lexer.tokenize"),
    ("lexer.extract_math.s", "lexer.extract_math"),
    ("engine.replace_all.s", "engine.replace_all"),
    ("metadata.detect_constraints.s", "metadata.detect_constraints"),
    ("metadata.harvest_names_and_notes.s", "metadata.harvest_names_and_notes"),
    ("metadata.detect_substitutions.s", "metadata.detect_substitutions"),
    ("metadata.inline_substitutions.s", "metadata.inline_substitutions"),
    ("pages.render_page.s", "pages.render_page"),
    ("pages.emit_dump.s", "pages.emit_dump"),
    ("pages.stats_report.s", "pages.stats_report"),
    ("pipeline.run_pipeline.s", "pipeline.run_pipeline"),
)


def layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """Per-layer figures of one traced command."""
    calls = Counter(s[2] for s in spans)
    out: dict[str, float] = {name: _inclusive(spans, span) for name, span in _INCLUSIVE}
    out["lexer.tokenize.calls"] = calls["lexer.tokenize"]
    out["lexer.tokens"] = counts["lexer.tokens"]
    # canonicalize_string lexes, then calls canonicalize once; its self
    # time (grouping) belongs to this layer, its tokenize to the lexer
    out["canonicalize.calls"] = calls["canonicalize.canonicalize"]
    out["canonicalize.s"] = _self_time(spans, "canonicalize.canonicalize") + _self_time(
        spans, "canonicalize.canonicalize_string"
    )
    out["glossary.rules"] = counts["glossary.rules"]
    out["glossary.load.s"] = _inclusive(
        spans, "glossary.load_glossary", "glossary.loads_glossary"
    )
    out["engine.replace_all.calls"] = calls["engine.replace_all"]
    attempts = counts["engine.match_at.attempts"]
    out["engine.match_at.attempts"] = attempts
    out["engine.match_at.hits"] = counts["engine.match_at.hits"]
    out["engine.match_at.hit_ratio"] = counts["engine.match_at.hits"] / attempts if attempts else 0.0
    out["metadata.extract_document.s"] = _self_time(spans, "metadata.extract_document")
    out["metadata.defs"] = counts["metadata.defs"]
    out["pages.build_symbols_list.calls"] = calls["pages.build_symbols_list"]
    out["pages.dump_bytes"] = counts["pages.dump_bytes"]
    extract = [s for s in spans if s[2] == "metadata.extract_document"]
    out["pipeline.extract.busy_s"] = sum(s[5] for s in extract)
    out["pipeline.extract.wait_s"] = sum((s[4] - s[3]) - s[5] for s in extract)
    out["pipeline.fanout_s"] = (
        max(s[4] for s in extract) - min(s[3] for s in extract) if extract else 0.0
    )
    return out
