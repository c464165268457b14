"""Outside-in spans around the public functions of each mamimo layer.

Wrappers replace functions at the module names the package calls them
through (for example ``mamimo.pso.subcarrier_channels``), so nothing inside
the package changes. They are installed for one traced campaign and removed
afterwards. Spans stay in memory until the benchmark writes them out.
"""
from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict
from dataclasses import dataclass, field

import mamimo.campaign
import mamimo.channels
import mamimo.cli
import mamimo.pso


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    realization: str  # "<master seed>/<realization index>", "" outside one
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    """Span recorder for one traced campaign."""

    spans: list[Span] = field(default_factory=list)
    penalty_calls: int = 0
    feasible_calls: int = 0
    swarm_traces: list = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _realization: str = ""

    def wrap(self, name, fn, on_result=None):
        """Return `fn` recording a span per call. `name` may be a function of
        the call's arguments; `on_result` sees (args, result)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(label, time.perf_counter(), 0.0, parent, self._realization)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.end - span.start
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # --- layer-specific hooks ------------------------------------------------

    def _run_realization(self, fn):
        traced = self.wrap("campaign.run_realization", fn)

        @functools.wraps(fn)
        def wrapper(spec, index, *args, **kwargs):
            self._realization = f"{spec.master_seed}/{index}"
            try:
                return traced(spec, index, *args, **kwargs)
            finally:
                self._realization = ""

        return wrapper

    def _objective_adapter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.wrap("pso.objective", fn(*args, **kwargs))

        return wrapper

    def _count_penalty(self, args, result) -> None:
        self.penalty_calls += 1
        self.feasible_calls += result == 0.0

    def _keep_swarm_trace(self, args, result) -> None:
        self.swarm_traces.append(result)

    def patches(self):
        """(module, attribute, replacement) for every traced boundary."""

        def rate_name(scheme, *args, summary_only=False, **kwargs):
            return f"rates.{scheme}.{'objective' if summary_only else 'report'}"

        c, p, ch, cli = mamimo.campaign, mamimo.pso, mamimo.channels, mamimo.cli
        return [
            (cli, "write_campaign_outputs",
             self.wrap("campaign.write_outputs", cli.write_campaign_outputs)),
            (c, "run_realization", self._run_realization(c.run_realization)),
            (c, "synthesize_paths", self.wrap("channels.synthesize_paths", c.synthesize_paths)),
            (c, "subcarrier_channels",
             self.wrap("channels.subcarrier_channels", c.subcarrier_channels)),
            (c, "evaluate_rate_scheme", self.wrap(rate_name, c.evaluate_rate_scheme)),
            (c, "zero_interference_bound",
             self.wrap("campaign.zero_interference_bound", c.zero_interference_bound)),
            (c, "fdd_evaluate", self.wrap("campaign.fdd_evaluate", c.fdd_evaluate)),
            (c, "objective_adapter", self._objective_adapter(c.objective_adapter)),
            (c, "pso_optimize",
             self.wrap("pso.pso_optimize", c.pso_optimize, self._keep_swarm_trace)),
            (p, "subcarrier_channels",
             self.wrap("channels.subcarrier_channels", p.subcarrier_channels)),
            (p, "evaluate_rate_scheme", self.wrap(rate_name, p.evaluate_rate_scheme)),
            (p, "spacing_penalty",
             self.wrap("pso.spacing_penalty", p.spacing_penalty, self._count_penalty)),
            (ch, "array_response", self.wrap("geometry.array_response", ch.array_response)),
        ]

    def run(self, fn, *args):
        """Call `fn(*args)` with every wrapper installed; always uninstall."""
        installed = []
        try:
            for module, attr, replacement in self.patches():
                installed.append((module, attr, getattr(module, attr)))
                setattr(module, attr, replacement)
            return fn(*args)
        finally:
            for module, attr, original in reversed(installed):
                setattr(module, attr, original)

    # --- summaries -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: call count, summed self time, summed inclusive time."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.self_s
            incl_s[span.name] += span.end - span.start
        return dict(calls), dict(self_s), dict(incl_s)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]


def write_spans(tracers: list[Tracer], path) -> None:
    """One CSV line per span; `campaign` numbers the traced campaigns."""
    lines = ["campaign,span,name,start_s,end_s,parent,realization"]
    for campaign, tracer in enumerate(tracers):
        origin = tracer.spans[0].start if tracer.spans else 0.0
        for i, s in enumerate(tracer.spans):
            lines.append(
                f"{campaign},{i},{s.name},{s.start - origin:.9f},{s.end - origin:.9f},"
                f"{s.parent},{s.realization}"
            )
    with gzip.open(path, "wt") as f:
        f.write("\n".join(lines) + "\n")
