"""Spans around the program's public functions, kept in memory.

`Tracer.install` replaces the module attributes that the program's own
callers look up (`experiments.generate_instance`, `experiments.run_auction`,
`experiments.run_sweep`, `experiments.emit_results`, `cli.run_auction`,
`cli.main`) with wrappers that record a span per call; `uninstall` puts the
originals back. Untraced runs never install it, so they time the program as
it is.

A span has an id, the id of the span open when it began (its parent), a
name, the operation it belongs to, start and end, and counts. Work the
benchmark itself does inside an open span, such as the extra
`select_winners_greedy` call that splits selection from pricing or the
`stat` of written files, is timed and recorded as excluded from every span
open at the time and from the operation, so it adds to no layer.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: str
    start: float
    end: float = 0.0
    excluded: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start - self.excluded) * 1e3


class Tracer:
    # Spans whose self times add up to what the trace attributes to the program.
    LAYERS = ("generate", "clear", "run_sweep", "emit", "cli")

    def __init__(self, experiments, cli, auction) -> None:
        self._experiments = experiments
        self._cli = cli
        self._auction = auction
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[Span] = []
        self.spans: list[Span] = []
        self.op = ""
        self.op_excluded = 0.0

    # -- recording ----------------------------------------------------------

    def begin_op(self, op: str) -> None:
        self.op = op
        self.op_excluded = 0.0

    def _exclude(self, seconds: float) -> None:
        for s in self._stack:
            s.excluded += seconds
        self.op_excluded += seconds

    def _wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, self.op, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
                self._exclude(time.perf_counter() - span.end)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, name: str, start: float, end: float, **counts) -> None:
        parent = self._stack[-1].id if self._stack else None
        self.spans.append(Span(len(self.spans), parent, name, self.op, start, end, counts=counts))

    # -- what each layer counts ---------------------------------------------

    @staticmethod
    def _after_generate(span, args, kwargs, result):
        span.counts["bidders"] = len(result)

    def _after_clear(self, span, args, kwargs, result):
        roster, config = args[0], args[1]
        span.counts["bidders"] = len(roster)
        span.counts["winners"] = len(result.winners)
        # Selection alone, on the same bids, so pricing is clear minus select.
        start = time.perf_counter()
        self._auction.select_winners_greedy([p.bid for p in roster], config)
        self._record("select", start, time.perf_counter())

    @staticmethod
    def _after_emit(span, args, kwargs, result):
        points, means = args[0], args[1]
        span.counts["rows"] = len(points) + len(means)
        span.counts["bytes"] = sum(Path(p).stat().st_size for p in result)

    @staticmethod
    def _after_cli(span, args, kwargs, result):
        argv = list(args[0])
        files = dict(zip(argv[2::2], argv[3::2]))
        span.counts["bytes_in"] = sum(Path(files[k]).stat().st_size for k in ("--bids", "--config"))
        out = Path(files["--out"])
        span.counts["bytes_out"] = out.stat().st_size if out.exists() else 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            return
        ex, cli = self._experiments, self._cli
        targets = [
            (ex, "generate_instance", "generate", self._after_generate),
            (ex, "run_auction", "clear", self._after_clear),
            (ex, "run_sweep", "run_sweep", None),
            (ex, "emit_results", "emit", self._after_emit),
            (cli, "run_auction", "clear", self._after_clear),
            (cli, "main", "cli", self._after_cli),
        ]
        for module, attr, name, after in targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, after))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- reading ------------------------------------------------------------

    def per_op(self, op: str) -> dict[str, float]:
        """Per-layer totals of one operation."""
        spans = [s for s in self.spans if s.op == op]
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None and s.name != "select":
                children.setdefault(s.parent, []).append(s)
        totals = {f"{name}.ms": 0.0 for name in self.LAYERS}
        totals.update({"select.ms": 0.0, "generate.bidders": 0, "clear.calls": 0, "clear.bidders": 0,
                       "clear.winners": 0, "clear.cleared": 0, "emit.rows": 0, "emit.bytes": 0,
                       "cli.bytes_in": 0, "cli.bytes_out": 0})
        for s in spans:
            if s.name == "select":
                totals["select.ms"] += s.ms
                continue
            # Self time: the span minus its children.
            totals[f"{s.name}.ms"] += s.ms - sum(c.ms for c in children.get(s.id, []))
            for key, value in s.counts.items():
                totals[f"{s.name}.{key}"] += value
            if s.name == "clear":
                totals["clear.calls"] += 1
                totals["clear.cleared"] += 1 if s.counts.get("winners", 0) > 0 else 0
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
