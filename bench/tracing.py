"""Spans around the calls into the program's modules, from outside them.

The tracer replaces the module attributes through which the program calls
its public functions (``mtgames.fixpoint.pre``, ``mtgames.cli.load_game``
and so on) with wrappers that record a span: name, start, end and the
span that was open when the call began. Spans are kept in memory and
written out when the run ends; the per-layer metrics are derived from
them. The program itself is not changed. A site that a later version of
the program no longer has is skipped, and its metrics read zero calls.

Spans opened by ``compare``'s worker threads have the ``cli.main`` span
of the call that started the pool as their parent.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute path) for every call site wrapped. A path
# step into a dict takes the item with that key.
SITES: tuple[tuple[str, str, str], ...] = (
    ("cli.main", "mtgames.cli", "main"),
    ("game.load_game", "mtgames.cli", "load_game"),
    ("game.validate_graph", "mtgames.game", "validate_graph"),
    ("game.validate_graph", "mtgames.solver", "validate_graph"),
    ("game.validate_graph", "mtgames.gr1", "validate_graph"),
    ("game.pre", "mtgames.fixpoint", "pre"),
    ("game.serialize_game", "mtgames.game", "serialize_game"),
    ("specs.parse_spec_file", "mtgames.cli", "parse_spec_file"),
    ("specs.bind_spec", "mtgames.specs", "bind_spec"),
    ("specs.bind_spec", "mtgames.solver", "bind_spec"),
    ("specs.bind_spec", "mtgames.gr1", "bind_spec"),
    ("specs.require_exclusive", "mtgames.solver", "require_exclusive"),
    ("specs.require_exclusive", "mtgames.gr1", "require_exclusive"),
    ("fixpoint.solve_stable_conjunction", "mtgames.solver", "solve_stable_conjunction"),
    ("fixpoint.solve_stable_conjunction", "mtgames.gr1", "solve_stable_conjunction"),
    ("fixpoint.solve_persistence_reach", "mtgames.fixpoint", "solve_persistence_reach"),
    ("fixpoint.gfp", "mtgames.fixpoint", "FixpointEngine.gfp"),
    ("fixpoint.record", "mtgames.fixpoint", "ModeTrace.from_iterates"),
    ("solver.solve_mt", "mtgames.cli", "solve_mt"),
    ("solver.solve_mt", "mtgames.cli", "_SOLVERS.mt"),
    ("gr1.embed", "mtgames.gr1", "embed"),
    ("gr1.solve_gr1_emb", "mtgames.cli", "solve_gr1_emb"),
    ("gr1.solve_gr1_emb", "mtgames.cli", "_SOLVERS.gr1emb"),
    ("strategy.extract_strategy", "mtgames.cli", "extract_strategy"),
    ("strategy.format_strategy", "mtgames.cli", "format_strategy"),
    ("strategy.check_strategy", "mtgames.cli", "check_strategy"),
    ("strategy.parse_strategy", "mtgames.cli", "parse_strategy"),
    ("strategy.parse_winning", "mtgames.cli", "parse_winning"),
    ("benchgen.generate", "mtgames.benchgen", "gen_cleaning_robot"),
    ("benchgen.generate", "mtgames.benchgen", "gen_random_game"),
    ("benchgen.generate", "mtgames.benchgen", "gen_multi_target_series"),
)

# Spans of these names make up the fixed-point layer's own time: set
# algebra and loops, without Pre and without trace recording.
FIXPOINT_SELF = ("fixpoint.solve_stable_conjunction", "fixpoint.solve_persistence_reach",
                 "fixpoint.gfp")


def _resolve(module: str, path: str):
    """(container, key) of the attribute at ``path``, or None if absent."""
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    steps = path.split(".")
    for step in steps[:-1]:
        obj = obj.get(step) if isinstance(obj, dict) else getattr(obj, step, None)
        if obj is None:
            return None
    last = steps[-1]
    present = last in obj if isinstance(obj, dict) else hasattr(obj, last)
    return (obj, last) if present else None


def _get(container, key):
    if isinstance(container, dict):
        return container[key]
    # The raw class attribute, so that a classmethod is put back as one.
    return vars(container)[key] if isinstance(container, type) else getattr(container, key)


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Records spans of wrapped calls; install with ``with tracer:``."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.outer_iterations = 0
        self.missing: list[str] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent))

    def call_root(self, name: str, fn, *args, **kwargs):
        """Like ``call``; spans that other threads open while it runs get
        this span as their parent."""

        def body():
            self.root = self._stack()[-1]
            return fn(*args, **kwargs)

        try:
            return self.call(name, body)
        finally:
            self.root = None

    def _wrapper(self, name: str, fn):
        if name == "cli.main":
            return lambda *args, **kwargs: self.call_root(name, fn, *args, **kwargs)
        if name != "fixpoint.solve_stable_conjunction":
            return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

        def counted(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            with self._lock:
                self.outer_iterations += getattr(
                    getattr(result, "stats", None), "outer_iterations", 0
                )
            return result

        return counted

    def __enter__(self) -> "Tracer":
        self.missing = []
        for name, module, path in self.sites:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            container, key = found
            raw = _get(container, key)
            bound = container[key] if isinstance(container, dict) else getattr(container, key)
            self._saved.append((container, key, raw))
            _set(container, key, self._wrapper(name, bound))
        return self

    def __exit__(self, *exc) -> None:
        for container, key, raw in reversed(self._saved):
            _set(container, key, raw)
        self._saved.clear()

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps({"fields": ["id", "name", "start", "end", "parent"], "spans": self.spans}),
            encoding="utf-8",
        )


def _union(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans, outer_iterations: int) -> dict[str, float]:
    """Per-layer totals over a set of spans (one traced pass)."""
    by_name: dict[str, list] = defaultdict(list)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    names = {}
    for sid, name, t0, t1, parent in spans:
        by_name[name].append((sid, t0, t1, parent))
        names[sid] = name
        if parent is not None:
            children[parent].append((t0, t1))

    def total(name: str) -> float:
        return sum(t1 - t0 for _, t0, t1, _ in by_name[name])

    def count(name: str) -> int:
        return len(by_name[name])

    def self_time(names_: tuple[str, ...]) -> float:
        return sum(
            (t1 - t0) - _union(children[sid])
            for name in names_
            for sid, t0, t1, _ in by_name[name]
        )

    # Generators nest (the series generator calls the random one); count
    # only the outermost call.
    generate = sum(
        t1 - t0 for _, t0, t1, parent in by_name["benchgen.generate"]
        if names.get(parent) != "benchgen.generate"
    )
    pre_calls = count("game.pre")
    pre_s = total("game.pre")
    fix_self = self_time(FIXPOINT_SELF)
    per_pre = 1e6 / pre_calls if pre_calls else 0.0
    return {
        "game.load_game_s": total("game.load_game"),
        "game.validate_graph_s": total("game.validate_graph"),
        "game.validate_graph_calls": count("game.validate_graph"),
        "game.pre_calls": pre_calls,
        "game.pre_s": pre_s,
        "game.pre_us": pre_s * per_pre,
        "game.serialize_game_s": total("game.serialize_game"),
        "fixpoint.self_s": fix_self,
        "fixpoint.self_us_per_pre": fix_self * per_pre,
        "fixpoint.gfp_calls": count("fixpoint.gfp"),
        "fixpoint.persistence_reach_calls": count("fixpoint.solve_persistence_reach"),
        "fixpoint.outer_iterations": outer_iterations,
        "fixpoint.record_s": total("fixpoint.record"),
        "specs.parse_spec_file_s": total("specs.parse_spec_file"),
        "specs.bind_spec_s": total("specs.bind_spec"),
        "specs.bind_spec_calls": count("specs.bind_spec"),
        "specs.require_exclusive_s": total("specs.require_exclusive"),
        "solver.solve_mt_s": total("solver.solve_mt"),
        "gr1.embed_s": total("gr1.embed"),
        "gr1.solve_gr1_emb_s": total("gr1.solve_gr1_emb"),
        "strategy.extract_strategy_s": total("strategy.extract_strategy"),
        "strategy.format_strategy_s": total("strategy.format_strategy"),
        "strategy.check_strategy_s": total("strategy.check_strategy"),
        "strategy.parse_strategy_s": total("strategy.parse_strategy"),
        "strategy.parse_winning_s": total("strategy.parse_winning"),
        "cli.self_s": self_time(("cli.main",)),
        "benchgen.generate_s": generate,
    }
