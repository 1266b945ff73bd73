"""In-memory spans around the program's module-level calls.

The tracer replaces names in ``invarmine.cli`` and ``invarmine.pipeline``
with wrappers.  Both modules look these names up when they call them, so
the program's own calls pass through the wrappers and nothing under
``src/`` changes.  Each wrapper records a span (name, start, end, parent
span, cycle) plus counts taken from the call's return value or output
file.  Spans stay in memory until the run writes them out.

A name that a later version of the program no longer has, or no longer
calls, yields no spans; the metrics built on it are reported as absent.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from dataclasses import asdict, dataclass, field

import invarmine.cli
import invarmine.pipeline


def _file_bytes(path_arg: int):
    def count(result, *args, **kwargs):
        return {"bytes": os.path.getsize(args[path_arg])}

    return count


def _tree_counts(tree, *args, **kwargs):
    if tree is None:
        return {"fits": 0, "internal_nodes": 0}
    return {"fits": 1, "internal_nodes": sum(1 for _ in tree.internal_nodes())}


def _report_counts(reports, *args, **kwargs):
    return {
        "violations": sum(len(r.violations) for r in reports),
        "flagged_rows": sum(1 for r in reports if r.is_anomaly),
    }


# (module, name, counter): the names the program looks up at call time
TARGETS = [
    (invarmine.cli, "load_schema", None),
    (invarmine.cli, "load_csv", lambda ds, *a, **k: {"rows": ds.row_count}),
    (invarmine.cli, "train_ruleset", None),
    (invarmine.cli, "save_ruleset", _file_bytes(1)),
    (invarmine.cli, "load_ruleset", None),
    (invarmine.cli, "detect", _report_counts),
    (invarmine.cli, "write_reports", _file_bytes(2)),
    (invarmine.cli, "explain", None),
    (invarmine.pipeline, "compute_column_stats", None),
    (invarmine.pipeline, "fit_classification_tree", _tree_counts),
    (invarmine.pipeline, "fit_regression_tree", _tree_counts),
    (invarmine.pipeline, "extract_cutoffs", lambda c, *a, **k: {"cutoffs": sum(len(v) for v in c.values())}),
    (invarmine.pipeline, "gen_categorical_predicates", lambda c, *a, **k: {"predicates": len(c)}),
    (invarmine.pipeline, "gen_continuous_predicates", lambda c, *a, **k: {"predicates": len(c)}),
    (invarmine.pipeline, "mine_frequent_sets", lambda s, *a, **k: {"sets": len(s)}),
    (invarmine.pipeline, "filter_closed", lambda s, *a, **k: {"sets": len(s)}),
    (invarmine.pipeline, "generate_rules", lambda r, *a, **k: {"rules": len(r)}),
    (invarmine.pipeline, "boundary_rules", lambda r, *a, **k: {"rules": len(r)}),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    cycle: int
    counts: dict[str, int] = field(default_factory=dict)
    count_s: float = 0.0  # time spent taking the counts, charged to no layer

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cycle = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.cycle)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result, *args, **kwargs)
                span.count_s = time.perf_counter() - span.end
            return result

        return traced

    def install(self) -> None:
        for module, name, counter in TARGETS:
            fn = getattr(module, name, None)
            if fn is None:
                self.absent.append(f"{module.__name__}.{name}")
                continue
            self._saved.append((module, name, fn))
            setattr(module, name, self.wrap(name, fn, counter))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def self_seconds(self, index: int) -> float:
        """Duration minus the time covered by child spans and their counting."""
        span = self.spans[index]
        covered = sum(
            s.seconds + s.count_s for s in self.spans if s.parent == index
        )
        return span.seconds - covered

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# metric -> unit, per the benchmark's per-layer list
LAYER_UNITS = {
    "cli.self_s": "s",
    "data.load_csv_s": "s",
    "data.load_csv_rows_per_s": "rows/s",
    "data.compute_column_stats_s": "s",
    "tree.fit_s": "s",
    "tree.fits": "count",
    "tree.internal_nodes": "count",
    "tree.cutoffs": "count",
    "predicates.gen_s": "s",
    "predicates.count": "count",
    "mining.mine_frequent_sets_s": "s",
    "mining.frequent_sets": "count",
    "mining.filter_closed_s": "s",
    "mining.closed_sets": "count",
    "mining.closed_ratio": "ratio",
    "mining.generate_rules_s": "s",
    "mining.mined_rules": "count",
    "mining.rules_per_closed": "ratio",
    "mining.boundary_rules_s": "s",
    "mining.save_ruleset_s": "s",
    "mining.load_ruleset_s": "s",
    "mining.rule_file_bytes": "bytes",
    "pipeline.train_ruleset_s": "s",
    "pipeline.self_s": "s",
    "detect.score_dataset_s": "s",
    "detect.detect_s": "s",
    "detect.violations": "count",
    "detect.flagged_rows": "count",
    "detect.write_reports_s": "s",
    "detect.report_bytes": "bytes",
    "detect.explain_s": "s",
    "detect.score_point_us": "us",
    "evaluate.auc": "ratio",
    "trace.overhead": "ratio",
}

COUNTERS = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes")]

# ratio metric -> (numerator counter, base counter), both summed over a pass
RATIOS = {
    "mining.closed_ratio": ("mining.closed_sets", "mining.frequent_sets"),
    "mining.rules_per_closed": ("mining.mined_rules", "mining.closed_sets"),
}


def ratio(num, base):
    if num is None or base is None or base == 0:
        return None
    return num / base


def total(values):
    """Sum of the values that are present; None when none is."""
    present = [v for v in values if v is not None]
    return sum(present) if present else None


class _Cycle:
    """The spans of one traced cycle: one train, score and explain command
    and the score_dataset and score_point probes that follow them."""

    def __init__(self, tracer: Tracer, cycle: int):
        self.tracer = tracer
        self.indices = [i for i, s in enumerate(tracer.spans) if s.cycle == cycle]

    def spans(self, *names: str) -> list[Span]:
        return [self.tracer.spans[i] for i in self.indices if self.tracer.spans[i].name in names]

    def seconds(self, *names: str) -> float | None:
        return total(s.seconds for s in self.spans(*names))

    def count(self, key: str, *names: str) -> int | None:
        return total(s.counts.get(key, 0) for s in self.spans(*names))

    def first(self, key: str, name: str) -> int | None:
        spans = self.spans(name)
        return spans[0].counts.get(key) if spans else None

    def self_seconds(self, name: str) -> float | None:
        idx = [i for i in self.indices if self.tracer.spans[i].name == name]
        return total(self.tracer.self_seconds(i) for i in idx)


def cycle_metrics(tracer: Tracer, cycle: int) -> dict[str, float | int | None]:
    """Per-layer values of one cycle.  Seconds and counts are summed over the
    cycle's calls, except where a comment says otherwise; None marks a
    name the program no longer calls."""
    c = _Cycle(tracer, cycle)
    trees = ("fit_classification_tree", "fit_regression_tree")
    predicates = ("gen_categorical_predicates", "gen_continuous_predicates")
    point_spans = c.spans("score_point")
    return {
        "cli.self_s": c.self_seconds("cli.main"),
        "data.load_csv_s": c.seconds("load_csv"),
        "data.load_csv_rows_per_s": ratio(c.count("rows", "load_csv"), c.seconds("load_csv")),
        "data.compute_column_stats_s": c.seconds("compute_column_stats"),
        "tree.fit_s": c.seconds(*trees),
        "tree.fits": c.count("fits", *trees),
        "tree.internal_nodes": c.count("internal_nodes", *trees),
        "tree.cutoffs": c.count("cutoffs", "extract_cutoffs"),
        "predicates.gen_s": c.seconds(*predicates),
        "predicates.count": c.count("predicates", *predicates),
        "mining.mine_frequent_sets_s": c.seconds("mine_frequent_sets"),
        "mining.frequent_sets": c.count("sets", "mine_frequent_sets"),
        "mining.filter_closed_s": c.seconds("filter_closed"),
        "mining.closed_sets": c.count("sets", "filter_closed"),
        "mining.generate_rules_s": c.seconds("generate_rules"),
        "mining.mined_rules": c.count("rules", "generate_rules"),
        "mining.boundary_rules_s": c.seconds("boundary_rules"),
        "mining.save_ruleset_s": c.seconds("save_ruleset"),
        "mining.load_ruleset_s": c.seconds("load_ruleset"),
        "mining.rule_file_bytes": c.first("bytes", "save_ruleset"),
        "pipeline.train_ruleset_s": c.seconds("train_ruleset"),
        "pipeline.self_s": c.self_seconds("train_ruleset"),
        "detect.score_dataset_s": c.seconds("score_dataset"),
        "detect.detect_s": c.seconds("detect"),
        # the score command's detect call; explain re-detects the same table
        "detect.violations": c.first("violations", "detect"),
        "detect.flagged_rows": c.first("flagged_rows", "detect"),
        "detect.write_reports_s": c.seconds("write_reports"),
        "detect.report_bytes": c.first("bytes", "write_reports"),
        "detect.explain_s": c.seconds("explain"),
        # median latency of one score_point call
        "detect.score_point_us": (
            statistics.median(s.seconds for s in point_spans) * 1e6 if point_spans else None
        ),
    }


# groups compared when checking which layer dominates a command
MIX_GROUPS = {
    "tree.fit": ("fit_classification_tree", "fit_regression_tree"),
    "mining": ("mine_frequent_sets", "filter_closed", "generate_rules"),
    "mining.boundary_rules": ("boundary_rules",),
    "mining.save_ruleset": ("save_ruleset",),
    "mining.load_ruleset": ("load_ruleset",),
    "data.load_csv": ("load_csv",),
    "data.load_schema": ("load_schema",),
    "data.compute_column_stats": ("compute_column_stats",),
    "tree.extract_cutoffs": ("extract_cutoffs",),
    "predicates.gen": ("gen_categorical_predicates", "gen_continuous_predicates"),
    "detect+write_reports": ("detect", "write_reports"),
    "detect.explain": ("explain",),
}


def command_mix(tracer: Tracer, cycle: int) -> dict[str, dict[str, float]]:
    """Share of each CLI command's wall time spent in each layer group.

    Self time of the command and of train_ruleset appears as cli.self and
    pipeline.self.
    """
    out: dict[str, dict[str, float]] = {}
    spans = tracer.spans
    for root in (i for i, s in enumerate(spans) if s.cycle == cycle and s.name == "cli.main"):
        command = spans[root].counts.get("command", "?")
        members = {root}
        for i in range(root + 1, len(spans)):
            if spans[i].parent in members:
                members.add(i)
        wall = spans[root].seconds
        shares = {"cli.self": tracer.self_seconds(root) / wall}
        for group, names in MIX_GROUPS.items():
            secs = sum(spans[i].seconds for i in members if spans[i].name in names)
            if secs:
                shares[group] = secs / wall
        for i in members:
            if spans[i].name == "train_ruleset":
                shares["pipeline.self"] = tracer.self_seconds(i) / wall
        out[str(command)] = shares
    return out
