"""The invarmine benchmark: train once, then score and explain new rows.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload tall --seed 1 --seconds 45 --trace 0

One process, one caller, serial training (the CLI default).  The
benchmark calls the user-facing entry points in-process:
``invarmine.cli.main`` for ``train``, ``score`` and ``explain``, and the
library calls ``score_dataset`` and ``score_point``.

A run uses INSTANCES input pairs.  Instance k trains on the table of
generator seed k in every run; ``--seed n`` draws the test tables (seed
TEST_SEED_BASE + n*INSTANCES + k), the injected cells and the rows that
``explain`` and ``score_point`` visit.  The mined ruleset, and with it
the cost of scoring, changes a lot from one training seed to the next
(README.md, "Why the training tables are fixed"), so varying them per run
would make the spread between runs larger than any useful bound.

One cycle runs ``train``, ``score`` and ``explain`` through the CLI on
one instance, each followed by a probe of the library calls: BATCH_REPS
``score_dataset`` calls and POINT_PASSES passes of ``score_point`` calls
over POINT_ROWS rows.  Cycles visit the instances in turn until
``--seconds`` have passed, at least once each.  Each timed metric is the mean over instances of the
instance's median sample, so a stalled or sped-up sample does not decide
the figure and every instance weighs the same; ``score_point`` p50 and
p99 are taken over an instance's point rows, of each row's median
latency over the run's passes.  Every timed sample is scaled to a
reference machine speed (calibration.py).  Every output is checked
outside the timed regions.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
cycles for half the time, then traced cycles, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  Run details
(environment, samples, spans) are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

INSTANCES = 3
TEST_SEED_BASE = 10_000
MAX_CYCLES = 200
POINT_ROWS = 2000  # rows a score_point probe visits
POINT_PASSES = 3  # passes over those rows per probe
BATCH_REPS = 8  # score_dataset calls per probe
WARMUP_SCALE = 0.005

E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "score_rows_per_s": "rows/s",
    "explain_s": "s",
    "batch_rows_per_s": "rows/s",
    "point_us_p50": "us",
    "point_us_p99": "us",
    "peak_rss_mb": "MB",
}

if not os.path.isfile(os.path.join(SRC, "invarmine", "cli.py")):
    sys.exit(f"error: no invarmine sources under {SRC}; run from a source checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import invarmine.cli  # noqa: E402
from invarmine.data import load_csv  # noqa: E402
from invarmine.detect import score_dataset, score_point  # noqa: E402
from invarmine.evaluate import LabeledScores, roc_auc  # noqa: E402
from invarmine.mining import load_ruleset  # noqa: E402

import tracing  # noqa: E402
from calibration import REFERENCE_PYTHON_S, REFERENCE_S, Calibration  # noqa: E402
from workloads import WORKLOADS, Workload, write_inputs  # noqa: E402


class Ops(NamedTuple):
    """The entry points a cycle calls; traced runs pass wrapped ones."""

    main: object
    score_dataset: object
    score_point: object


PLAIN = Ops(invarmine.cli.main, score_dataset, score_point)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def median(values):
    return statistics.median(values) if values else None


def environment(workload: Workload, seed: int, scale: float, seconds: float) -> dict:
    commit = None  # a source checkout without .git has no commit to record
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            got = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = got.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    src_lines = 0
    for folder, dirs, names in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(n for n in names if n.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as fh:
                data = fh.read()
            src_hash.update(data)
            src_lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "src_lines": src_lines,
        "workload": asdict(workload),
        "seed": seed,
        "instances": [
            {"train_seed": k, "test_seed": TEST_SEED_BASE + seed * INSTANCES + k}
            for k in range(INSTANCES)
        ],
        "scale": scale,
        "seconds": seconds,
    }


class Instance:
    """One seeded input pair, its files, and the references the checks use."""

    def __init__(
        self, workload: Workload, train_seed: int, test_seed: int, directory: str, scale: float, cal: Calibration
    ):
        self.seed = f"{train_seed}/{test_seed}"
        shutil.rmtree(directory, ignore_errors=True)
        gc.collect()
        self.setup_mark = cal.mark()
        start = time.perf_counter()
        self.files, self.labels = write_inputs(workload, train_seed, test_seed, directory, scale)
        self.setup_s = time.perf_counter() - start
        self.rng = np.random.default_rng([test_seed, 2])
        self.digests: list[str] = []
        self.report_digest: str | None = None
        self.ruleset = None
        self.explained = 0
        self.samples: dict[str, list[tuple[float, int | None]]] = {}

    def load(self) -> None:
        """Untimed: the rule file and test table the library calls and checks use."""
        self.ruleset = load_ruleset(self.files.rules)
        self.test = load_csv(self.files.test, self.ruleset.schema.copy())
        self.reference = score_dataset(self.ruleset, self.test)
        n = self.test.row_count
        self.point_rows = self.rng.choice(n, size=min(POINT_ROWS, n), replace=False).tolist()
        self.points = [self.test.row(i) for i in self.point_rows]
        self.explain_rows = self.rng.permutation(np.flatnonzero(self.reference > 0)).tolist()

    def flagged(self) -> int:
        return int(np.count_nonzero(self.reference > 0))


class Runner:
    """Runs cycles of the five operations and checks every output.

    Counts attempted and failed operations: a failed operation is an
    unexpected exit code, a traceback or a failed correctness check.
    Every timed call or block of library calls follows a calibration
    mark, by which its samples are scaled (calibration.py).
    """

    def __init__(self, workload: Workload, instances: list[Instance], cal: Calibration):
        self.workload = workload
        self.instances = instances
        self.cal = cal
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.marked: dict[str, list] = {}  # every phase's samples with their marks, for the run details

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    @staticmethod
    def record(inst: Instance, key: str, value: float, mark: int | None) -> None:
        """A sample taken after calibration `mark`; None leaves it unscaled."""
        inst.samples.setdefault(key, []).append((value, mark))

    def take_samples(self) -> tuple[dict[str, list[list[float]]], dict[str, list[list[float]]]]:
        """Each key's samples per instance, scaled to the reference speed
        and as measured; clears them for the next phase."""
        keys = sorted({key for inst in self.instances for key in inst.samples})
        scaled, raw = {}, {}
        for key in keys:
            per_instance = [inst.samples.get(key, []) for inst in self.instances]
            self.marked.setdefault(key, []).append(
                [[(summary(v), mark) for v, mark in samples] for samples in per_instance]
            )
            raw[key] = [[v for v, _ in samples] for samples in per_instance]
            scaled[key] = [
                # score_point runs no numpy code: scaled by the kernel's interpreter part alone
                [v if mark is None else v * self.cal.scale(mark, key == "point_s") for v, mark in samples]
                for samples in per_instance
            ]
        for inst in self.instances:
            inst.samples = {}
        return scaled, raw

    def _cli(self, main, argv: list[str]) -> tuple[int | None, float, str, int]:
        out = io.StringIO()
        gc.collect()
        mark = self.cal.mark()
        with redirect_stdout(out), redirect_stderr(out):
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed operation, not a crash
                code = None
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        return code, elapsed, out.getvalue(), mark

    def train(self, inst: Instance, main) -> tuple[float, int] | None:
        f = inst.files
        if os.path.exists(f.rules):
            os.remove(f.rules)
        code, secs, out, mark = self._cli(
            main,
            ["train", "--data", f.train, "--schema", f.schema, "--theta", str(self.workload.theta),
             "--gamma", str(self.workload.gamma), "--out", f.rules],
        )
        self.outcome(code == 0, f"seed {inst.seed}: train exited {code}: {out[-500:]}")
        if code != 0:
            return None
        inst.digests.append(sha256_file(f.rules))
        return secs, mark

    def cycle(self, inst: Instance, ops: Ops) -> None:
        """train, score and explain through the CLI, each followed by a probe
        of the library calls, so those samples spread over the cycle.
        score and explain run the workload's cli_reps times each."""
        trained = self.train(inst, ops.main)
        if trained is None:
            return
        self.record(inst, "train_s", *trained)
        if inst.ruleset is None:
            inst.load()
        f = inst.files
        self.probe(inst, ops)

        expected = 1 if bool((inst.reference > 0).any()) else 0
        for _ in range(self.workload.cli_reps):
            if os.path.exists(f.report):
                os.remove(f.report)
            code, secs, out, mark = self._cli(
                ops.main, ["score", "--rules", f.rules, "--data", f.test, "--out", f.report]
            )
            self.outcome(code == expected, f"seed {inst.seed}: score exited {code}, expected {expected}: {out[-500:]}")
            self.record(inst, "score_s", secs, mark)
            if os.path.exists(f.report):
                self.check_report(inst)
                os.remove(f.report)
            else:
                self.outcome(False, f"seed {inst.seed}: score wrote no report")
        self.probe(inst, ops)

        if not inst.explain_rows:
            self.outcome(False, f"seed {inst.seed}: no flagged row to explain")
        for _ in range(self.workload.cli_reps if inst.explain_rows else 0):
            row = inst.explain_rows[inst.explained % len(inst.explain_rows)]
            inst.explained += 1
            code, secs, out, mark = self._cli(
                ops.main, ["explain", "--rules", f.rules, "--data", f.test, "--row", str(row)]
            )
            self.outcome(
                code == 0 and out.startswith(f"row {row}: anomaly score"),
                f"seed {inst.seed}: explain --row {row} exited {code}: {out[-500:]}",
            )
            self.record(inst, "explain_s", secs, mark)
        self.probe(inst, ops)

    def probe(self, inst: Instance, ops: Ops) -> None:
        """BATCH_REPS score_dataset calls, then POINT_PASSES passes of
        score_point calls over the point rows in a closed loop; each result
        is checked against the reference scores.  Each of the two blocks
        follows its own calibration mark."""
        gc.collect()
        mark = self.cal.mark()
        for _ in range(BATCH_REPS):
            gc.collect()
            start = time.perf_counter()
            scores = ops.score_dataset(inst.ruleset, inst.test)
            self.record(inst, "batch_s", time.perf_counter() - start, mark)
            self.outcome(np.array_equal(scores, inst.reference), f"seed {inst.seed}: score_dataset changed between calls")
            del scores

        gc.collect()
        mark = self.cal.mark()
        clock = time.perf_counter
        mismatches = 0
        for _ in range(POINT_PASSES):
            latencies = []
            for row, point in zip(inst.point_rows, inst.points):
                start = clock()
                value = ops.score_point(inst.ruleset, point)
                latencies.append(clock() - start)
                mismatches += int(value != inst.reference[row])
            self.record(inst, "point_s", np.array(latencies), mark)
        self.attempted += POINT_PASSES * len(inst.points)
        self.failed += mismatches
        if mismatches:
            self.failures.append(f"seed {inst.seed}: score_point differs from score_dataset on {mismatches} calls")

    def check_report(self, inst: Instance) -> None:
        """detect (via the score report) agrees with score_dataset, one line
        per row.  Later reports of an instance must be byte-identical to
        the first, which was checked line by line."""
        digest = sha256_file(inst.files.report)
        if inst.report_digest is not None:
            self.outcome(digest == inst.report_digest, f"seed {inst.seed}: report differs from the first one")
            return
        inst.report_digest = digest
        with open(inst.files.report, encoding="utf-8") as fh:
            lines = fh.readlines()
        n = inst.test.row_count
        self.outcome(len(lines) == n, f"seed {inst.seed}: report has {len(lines)} lines for {n} rows")
        if len(lines) == n:
            scores = np.array([json.loads(line)["score"] for line in lines])
            self.outcome(np.array_equal(scores, inst.reference), f"seed {inst.seed}: report scores differ from score_dataset")

    def final_checks(self) -> None:
        """Training rows score 0; retraining gives a byte-identical rule file."""
        for inst in self.instances:
            if inst.ruleset is None:
                continue
            train = load_csv(inst.files.train, inst.ruleset.schema.copy())
            bad = int(np.count_nonzero(score_dataset(inst.ruleset, train)))
            self.outcome(bad == 0, f"seed {inst.seed}: {bad} training rows score above 0")
        first = self.instances[0]
        if len(first.digests) < 2:
            self.train(first, invarmine.cli.main)
        for inst in self.instances:
            if inst.digests:
                distinct = len(set(inst.digests))
                self.outcome(distinct == 1, f"seed {inst.seed}: {distinct} distinct rule files")

    def run(self, seconds: float, ops: Ops = PLAIN, tracer=None) -> int:
        """Cycles over the instances in turn until `seconds` have passed,
        at least one per instance; a last calibration mark closes the
        last sample."""
        deadline = time.perf_counter() + seconds
        cycles = 0
        k = len(self.instances)
        while cycles < k or (time.perf_counter() < deadline and cycles < MAX_CYCLES):
            if tracer is not None:
                tracer.cycle = cycles
            self.cycle(self.instances[cycles % k], ops)
            cycles += 1
        self.cal.mark()
        return cycles


def warm_up(seed: int, directory: str) -> None:
    """One untimed cycle on tiny tall tables, so import costs and first-call
    effects stay out of the timings.  Every workload runs the same code
    paths; tall's tiny tables mine few rules and so warm up quickly."""
    tall = WORKLOADS["tall"]
    cal = Calibration()
    Runner(tall, [Instance(tall, 0, seed, directory, WARMUP_SCALE, cal)], cal).run(0)
    shutil.rmtree(directory, ignore_errors=True)


def summary(value):
    """A sample as the run details keep it: a probe's score_point latencies
    as their count, p50 and p99 in microseconds."""
    if isinstance(value, np.ndarray):
        return {"calls": len(value), "p50_us": float(np.percentile(value, 50)) * 1e6,
                "p99_us": float(np.percentile(value, 99)) * 1e6}
    return value


def summarized(samples: dict[str, list[list]]) -> dict[str, list[list]]:
    return {key: [[summary(v) for v in inst] for inst in per] for key, per in samples.items()}


def point_percentiles(per_instance: list[list[np.ndarray]] | None) -> tuple[float | None, float | None]:
    """score_point p50 and p99 in microseconds: per instance, each point
    row's median latency over the run's passes (every pass visits the
    same rows in the same order), then p50 and p99 over the rows; the mean
    over instances.  A host stall that hits one visit of a row does not
    make that row slow."""
    p50s, p99s = [], []
    for probes in per_instance or []:
        if probes:
            per_row = np.median(np.vstack(probes), axis=0)
            p50s.append(float(np.percentile(per_row, 50)) * 1e6)
            p99s.append(float(np.percentile(per_row, 99)) * 1e6)
    if not p50s:
        return None, None
    return statistics.fmean(p50s), statistics.fmean(p99s)


def center(per_instance: list[list[float]] | None) -> float | None:
    """Mean over instances of each instance's median.

    The median keeps a stalled or sped-up sample from deciding the figure;
    the mean weighs every instance equally however many cycles it got.
    """
    medians = [statistics.median(v) for v in per_instance or [] if v]
    return statistics.fmean(medians) if medians else None


def end_to_end(instances: list[Instance], samples: dict[str, list[list[float]]], setup: list[float]) -> dict:
    n_test = median([inst.test.row_count for inst in instances if inst.ruleset is not None])

    def rate(key):
        secs = center(samples.get(key))
        return n_test / secs if secs else None

    p50, p99 = point_percentiles(samples.get("point_s"))
    return {
        "setup_s": median(setup),
        "train_s": center(samples.get("train_s")),
        "score_rows_per_s": rate("score_s"),
        "explain_s": center(samples.get("explain_s")),
        "batch_rows_per_s": rate("batch_s"),
        "point_us_p50": p50,
        "point_us_p99": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(runner: Runner, seconds: float, detail: dict):
    """Untraced cycles, then the same cycles traced: per-layer metrics from
    the traced cycles, tracing overhead from the difference."""
    runner.run(seconds / 2)
    untraced, _ = runner.take_samples()

    tracer = tracing.Tracer()
    ops = Ops(
        tracer.wrap("cli.main", invarmine.cli.main, lambda code, argv: {"command": argv[0]}),
        tracer.wrap("score_dataset", score_dataset),
        tracer.wrap("score_point", score_point),
    )
    tracer.install()
    try:
        cycles = runner.run(seconds / 2, ops, tracer)
    finally:
        tracer.uninstall()

    k = len(runner.instances)
    per_cycle = [tracing.cycle_metrics(tracer, c) for c in range(cycles)]
    values: dict = {}
    for name in tracing.LAYER_UNITS:
        if name in tracing.COUNTERS:
            # summed over the instances; every cycle on an instance must repeat its count
            per_instance = [m[name] for m in per_cycle[:k]]
            for c in range(k, cycles):
                got = per_cycle[c][name]
                runner.outcome(got == per_instance[c % k], f"counter {name} changed on instance {c % k}: {got}")
            values[name] = tracing.total(per_instance)
            print(f"{name} per instance: {per_instance}")
        elif name in per_cycle[0]:
            values[name] = median([m[name] for m in per_cycle if m[name] is not None])
    for name, (num, base) in tracing.RATIOS.items():
        values[name] = tracing.ratio(values[num], values[base])
        print(f"{name} base: {values[num]} {num} / {values[base]} {base}, summed over instances")
    print(f"data.load_csv_rows_per_s base: rows loaded per cycle / data.load_csv_s, median over cycles")
    values["evaluate.auc"] = median([
        roc_auc(LabeledScores(inst.reference, inst.labels))
        for inst in runner.instances if inst.ruleset is not None
    ])

    traced, _ = runner.take_samples()
    ops_keys = ("train_s", "score_s", "explain_s", "batch_s")
    before = sum(center(untraced.get(key)) or 0.0 for key in ops_keys)
    after = sum(center(traced.get(key)) or 0.0 for key in ops_keys)
    values["trace.overhead"] = after / before - 1.0
    print(f"trace.overhead base: train+score+explain+score_dataset {before:.6g} s untraced "
          f"vs {after:.6g} s traced, both scaled to the reference speed")
    if tracer.absent:
        print("absent names: " + ", ".join(tracer.absent))

    mix = [tracing.command_mix(tracer, c) for c in range(cycles)]
    print_layer_mix(runner.workload.name, mix)
    detail.update(spans=tracer.to_json(), absent=tracer.absent, mix=mix, untraced_samples=summarized(untraced))
    return {name: values.get(name) for name in tracing.LAYER_UNITS}, tracing.LAYER_UNITS, traced


# the layer each workload was chosen to stress, per command
EXPECTED_LARGEST = {
    "tall": {"train": "tree.fit"},
    "wide": {"train": "mining", "score": "detect+write_reports"},
    "noisy": {"train": "tree.fit"},
}


def print_layer_mix(workload: str, mix: list[dict[str, dict[str, float]]]) -> None:
    """Median share of each command's wall time per layer group, and whether
    the group the workload was chosen for is the largest."""
    for command in ("train", "score", "explain"):
        shares: dict[str, list[float]] = {}
        for cycle in mix:
            for group, share in cycle.get(command, {}).items():
                shares.setdefault(group, []).append(share)
        if not shares:
            continue
        ranked = sorted(((median(v), g) for g, v in shares.items()), reverse=True)
        line = f"layer mix {command}: " + ", ".join(f"{g} {s:.3f}" for s, g in ranked[:5])
        expected = EXPECTED_LARGEST.get(workload, {}).get(command)
        if expected is not None:
            verdict = "confirmed" if ranked[0][1] == expected else "NOT confirmed"
            line += f" -- expected {expected} largest: {verdict}"
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="row-count multiplier (self-test: 0.01)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    env = environment(workload, args.seed, args.scale, args.seconds)
    print("env: " + json.dumps(env, sort_keys=True))
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = os.path.join(OUT_DIR, "work-" + tag)
    detail: dict = {"env": env}
    cal = Calibration()
    try:
        instances = [
            Instance(workload, i["train_seed"], i["test_seed"], os.path.join(work, str(k)), args.scale, cal)
            for k, i in enumerate(env["instances"])
        ]
        cal.mark()
        setup = [inst.setup_s for inst in instances]
        scaled_setup = [inst.setup_s * cal.scale(inst.setup_mark) for inst in instances]
        warm_up(args.seed, os.path.join(work, "warmup"))
        runner = Runner(workload, instances, cal)
        if args.trace == 0:
            runner.run(args.seconds)
            samples, raw = runner.take_samples()
            values, units = end_to_end(instances, samples, scaled_setup), E2E_UNITS
            measured = end_to_end(instances, raw, setup)
        else:
            values, units, samples = traced_run(runner, args.seconds, detail)
            measured = {}
        runner.final_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}: {workload.why}")
    def count(key):
        return [len(v) for v in samples.get(key, [])]

    print(f"seed {args.seed}: per instance {count('train_s')} train/score/explain samples, "
          f"{count('batch_s')} score_dataset samples, {count('point_s')} score_point passes of "
          f"{sum(len(a) for v in samples.get('point_s', []) for a in v)} calls in all; each metric is the mean "
          f"over instances of the instance's median")
    for inst in instances:
        print(f"instance seed {inst.seed}: rule file sha256 {inst.digests[0] if inst.digests else None}, "
              f"flagged rows {inst.flagged() if inst.ruleset is not None else None}")
    error_rate = runner.failed / max(1, runner.attempted)
    print(f"error_rate {error_rate:.6g} ratio ({runner.failed} failed / {runner.attempted} attempted)")
    for failure in runner.failures:
        print(f"FAILED: {failure}")
    print(f"calibration: {len(cal.times)} kernel runs, median {cal.median():.6g} s (interpreter part "
          f"{statistics.median(cal.python):.6g} s), reference {REFERENCE_S} s ({REFERENCE_PYTHON_S} s); "
          f"timings are scaled to the reference speed, per sample")
    for name, value in measured.items():
        if name != "peak_rss_mb" and value is not None:
            print(f"unscaled {name} {value:.6g} {units[name]}")
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name} {shown} {units[name]}")

    detail.update(
        setup_s=setup,
        scaled_setup_s=scaled_setup,
        calibration_s=cal.times,
        calibration_python_s=cal.python,
        marked_samples=runner.marked,
        samples=summarized(samples),
        digests={inst.seed: inst.digests for inst in instances},
        failures=runner.failures,
        metrics=values,
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh)

    correct = runner.failed == 0
    if args.trace == 0:
        correct = correct and all(v is not None for v in values.values())
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
