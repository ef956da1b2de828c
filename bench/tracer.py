"""Spans and counters around calls into ``vspace``, installed from outside.

The tracer rebinds module attributes (and two ``_PrunedSearch`` methods)
to wrappers and restores them on ``uninstall``.  A function imported into
another module under the same name, such as ``require_valid_space`` in
``connectivity`` or ``validate_space`` in ``cli``, is rebound there too.
A hook whose target no longer exists is recorded in ``absent`` and its
metrics are reported as absent.

Spans are kept in memory as ``[name, start, end, parent]`` and folded into
per-name totals by ``fold``; a span's self time is its duration minus the
durations of its direct children (calls are single-threaded and nested,
so children never overlap).
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter

SPAN, COUNT, OUTER = "span", "count", "outer"

# (metric prefix, module, attribute path, kind, bytes read from the text
# argument ("in") or the returned text ("out")).  Span names are the layer
# boundaries whose self time is reported; COUNT hooks only count calls;
# OUTER hooks count every call (search nodes) and time the outermost one.
HOOKS = (
    ("spaces.validate_space", "spaces", "validate_space", SPAN, None),
    ("connectivity.is_connected", "connectivity", "is_connected", SPAN, None),
    ("connectivity.precompute", "connectivity", "_PrunedSearch.__init__", SPAN, None),
    ("connectivity.verify_witness", "connectivity", "verify_witness", SPAN, None),
    ("connectivity.chain_exists", "connectivity", "chain_exists", COUNT, None),
    ("connectivity.pruned_search", "connectivity", "_PrunedSearch.search", OUTER, None),
    ("connectivity.brute_search", "connectivity", "_brute", OUTER, None),
    ("connectivity.brute_cover", "connectivity", "_sets_reachable", COUNT, None),
    ("tolerance.tolerance_report", "tolerance", "tolerance_report", SPAN, None),
    ("tolerance.check_nontol", "tolerance", "check_nontol", SPAN, None),
    ("coding.validate_config", "coding", "validate_config", COUNT, None),
    ("coding.build_coded_space", "coding", "build_coded_space", SPAN, None),
    ("coding.decode_from_cover", "coding", "decode_from_cover", SPAN, None),
    ("coding.verify_roundtrip", "coding", "verify_roundtrip", SPAN, None),
    ("oracles.machine_enumeration", "oracles", "machine_enumeration", SPAN, None),
    ("files.parse_space", "files", "parse_space", SPAN, "in"),
    ("files.parse_cover", "files", "parse_cover", SPAN, "in"),
    ("files.parse_oracle", "files", "parse_oracle", COUNT, "in"),
    ("files.serialize_space", "files", "serialize_space", SPAN, "out"),
    ("files.serialize_cover", "files", "serialize_cover", COUNT, "out"),
    ("files.serialize_oracle", "files", "serialize_oracle", COUNT, "out"),
    ("cli.main", "cli", "main", SPAN, None),
)


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps short names ("spaces", ...) to imported modules;
        the ``"package"`` entry is ``vspace`` itself."""
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.outer_s: dict[str, float] = defaultdict(float)
        self.bytes = {"in": 0, "out": 0}
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self._depth = 0

    # -------------------------------------------------------------- hooks

    def _resolve(self, module: str, path: str):
        owner = self.modules.get(module)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, parts[-1]):
            return None, None, None
        return owner, parts[-1], getattr(owner, parts[-1])

    def install(self) -> None:
        for name, module, path, kind, nbytes in HOOKS:
            owner, attr, fn = self._resolve(module, path)
            if fn is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, fn, kind, nbytes)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [
                    (mod, key)
                    for mod in self.modules.values()
                    for key, value in list(vars(mod).items())
                    if value is fn
                ]
            for site, key in sites:
                self._restore.append((site, key, fn))
                setattr(site, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            site, key, fn = self._restore.pop()
            setattr(site, key, fn)

    def _wrap(self, name: str, fn, kind: str, nbytes: str | None):
        calls, counted = self.calls, self.bytes

        def tally(args, result):
            calls[name] += 1
            if nbytes == "in":
                counted["in"] += len(args[0])
            elif nbytes == "out":
                counted["out"] += len(result)

        if kind == COUNT:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                tally(args, result)
                return result
        elif kind == OUTER:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if self._depth:
                    return fn(*args, **kwargs)
                self._depth = 1
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.outer_s[name] += perf_counter() - start
                    self._depth = 0
        else:
            def wrapper(*args, **kwargs):
                result = self.span(name, fn, *args, **kwargs)
                tally(args, result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- spans

    def span(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self.stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()

    def fold(self) -> None:
        """Add the recorded spans' self and total times to the totals."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child[i]
        self.spans.clear()
