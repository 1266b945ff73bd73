"""Command-line interface: exit codes, outputs, and file handling."""

import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invarmine import cli, mining
from invarmine.data import DataError, load_csv, load_schema, save_schema, write_csv
from invarmine.detect import DetectionConfig, detect, explain
from invarmine.evaluate import LabeledScores, standardized_pauc
from invarmine.mining import MiningConfig, load_ruleset
from invarmine.pipeline import train_ruleset
from invarmine.predicates import Interval
from invarmine.synth import planted_rule_data

from helpers import make_schema, write_text
from oracles import reports_by_row_loop, write_reports_by_json_dumps

# the package's `detect` name is the function, so reach the module by import
detect_module = importlib.import_module("invarmine.detect")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A trained rule file plus clean and anomalous CSVs to score."""
    root = tmp_path_factory.mktemp("cli")
    train, _ = planted_rule_data(150, seed=51)
    test, labels = planted_rule_data(60, seed=52, violation_rate=0.2)

    paths = {
        "schema": str(root / "schema.json"),
        "train": str(root / "train.csv"),
        "test": str(root / "test.csv"),
        "labels": str(root / "labels.txt"),
        "rules": str(root / "rules.json"),
        "root": root,
    }
    save_schema(train.schema, paths["schema"])
    write_csv(train, paths["train"])
    write_csv(test, paths["test"])
    with open(paths["labels"], "w") as fh:
        fh.write("".join(f"{v}\n" for v in labels.tolist()))

    code = cli.main(
        [
            "train",
            "--data", paths["train"],
            "--schema", paths["schema"],
            "--theta", "0.2",
            "--gamma", "0.3",
            "--max-set-size", "4",
            "--out", paths["rules"],
        ]
    )
    assert code == 0
    paths["labeled_anomalies"] = np.nonzero(labels)[0].tolist()
    paths["n_anomalies"] = int(labels.sum())
    paths["test_rows"] = test.row_count
    return paths


class TestTrain:
    def test_reports_counts_and_writes_the_rule_file(self, workdir, capsys, tmp_path):
        out = str(tmp_path / "again.json")
        code = cli.main(
            [
                "train",
                "--data", workdir["train"],
                "--schema", workdir["schema"],
                "--theta", "0.2",
                "--gamma", "0.3",
                "--max-set-size", "4",
                "--out", out,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "rows: 150" in captured.out
        assert "predicates: " in captured.out
        assert "mined + " in captured.out and "boundary = " in captured.out
        assert f"wrote {out}" in captured.out
        ruleset = load_ruleset(out)
        assert ruleset.theta == 0.2 and ruleset.gamma == 0.3

    def test_bad_theta_is_a_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "train",
                    "--data", workdir["train"],
                    "--schema", workdir["schema"],
                    "--theta", "1.5",
                    "--gamma", "0.0",
                    "--out", "unused.json",
                ]
            )
        assert exc.value.code == 2

    def test_workers_is_an_unrecognized_argument(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "train",
                    "--data", workdir["train"],
                    "--schema", workdir["schema"],
                    "--theta", "0.2",
                    "--gamma", "0.3",
                    "--workers", "2",
                    "--out", "unused.json",
                ]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_enumeration_past_its_bound_is_an_error(self, workdir, capsys, tmp_path, monkeypatch):
        # theta 0.2 with no size cap takes 300 candidate checks here, 18 of them in
        # the root pass, so 100 stops the enumeration inside the search
        monkeypatch.setattr(mining, "_MAX_CANDIDATE_CHECKS", 100)
        code = cli.main(
            ["train", "--data", workdir["train"], "--schema", workdir["schema"], "--theta", "0.2",
             "--gamma", "0.3", "--max-set-size", "0", "--out", str(tmp_path / "rules.json")]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: frequent-set enumeration passed 100 candidate checks")
        assert "max_set_size (now None)" in captured.err

    def test_cell_over_the_csv_field_limit_is_a_data_error(self, workdir, capsys, tmp_path):
        lines = Path(workdir["train"]).read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index("U2")] = "b" * 140_000
        bad = tmp_path / "long.csv"
        bad.write_text("\n".join(lines + [",".join(cells)]) + "\n")
        code = cli.main(
            ["train", "--data", str(bad), "--schema", workdir["schema"], "--theta", "0.2",
             "--gamma", "0.3", "--out", str(tmp_path / "rules.json")]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(f"error: {bad}: row 150: field larger than field limit")

    def test_neighbouring_float_values_get_a_cutoff_between_them(self, capsys, tmp_path):
        """The midpoint of these two values rounds onto the larger one, so a
        split at it would send every row right; the larger value parts them."""
        low, high = 1.0000000000000002, 1.0000000000000004
        rows = [f"{x!r},{u}" for x, u in [(low, "p"), (high, "q")] * 10]
        data = write_text(tmp_path / "near.csv", "\n".join(["X,U", *rows]) + "\n")
        schema = str(tmp_path / "schema.json")
        save_schema(make_schema(cont=("X",), cat=("U",)), schema)
        out = str(tmp_path / "rules.json")
        code = cli.main(
            ["train", "--data", data, "--schema", schema, "--theta", "0.2", "--gamma", "0", "--out", out]
        )
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: column 'X': no other continuous column to regress on; tree skipped\n"
        )
        catalog = train_ruleset(load_csv(data, load_schema(schema)), MiningConfig(0.2, 0.0)).catalog
        assert Interval("X", -math.inf, high) in catalog.predicates
        assert Interval("X", high, math.inf) in catalog.predicates

    @pytest.mark.parametrize(
        "low, high", [(1.7e308, math.nextafter(1.7e308, math.inf)), (-1.7e308, 1.7e308)], ids=["top", "both-ends"]
    )
    def test_values_near_the_float_maximum_train_without_overflow(self, capsys, tmp_path, low, high):
        rows = [f"{x!r},{u}" for x, u in [(low, "p"), (high, "q")] * 10]
        data = write_text(tmp_path / "huge.csv", "\n".join(["X,U", *rows]) + "\n")
        schema = str(tmp_path / "schema.json")
        save_schema(make_schema(cont=("X",), cat=("U",)), schema)
        out = str(tmp_path / "rules.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(
                ["train", "--data", data, "--schema", schema, "--theta", "0.2", "--gamma", "0", "--out", out]
            )
            assert code == 0
            # boundary rules come in schema order, X's first
            envelope = next(r.consequent[0] for r in load_ruleset(out).rules if r.kind == mining.BOUNDARY)
            assert -sys.float_info.max <= envelope.low <= low and high <= envelope.high <= sys.float_info.max
            assert cli.main(["score", "--rules", out, "--data", data, "--out", str(tmp_path / "r.jsonl")]) == 0

    def test_categorical_only_schema_warns_that_trees_are_skipped(self, capsys, tmp_path):
        rows = [f"{a},{b}" for a, b in [("a", "x"), ("b", "y")] * 10]
        data = write_text(tmp_path / "cat.csv", "\n".join(["U1,U2", *rows]) + "\n")
        schema = str(tmp_path / "schema.json")
        save_schema(make_schema(cat=("U1", "U2")), schema)
        code = cli.main(
            ["train", "--data", data, "--schema", schema, "--theta", "0.2", "--gamma", "0",
             "--out", str(tmp_path / "rules.json")]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "".join(
            f"warning: column {name!r}: no continuous columns to split on; tree skipped\n"
            for name in ("U1", "U2")
        )
        assert "rules: " in captured.out

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestScore:
    def test_clean_data_exits_zero(self, workdir, capsys, tmp_path):
        out = str(tmp_path / "clean.jsonl")
        code = cli.main(
            ["score", "--rules", workdir["rules"], "--data", workdir["train"], "--out", out]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "scored 150 rows: 0 anomalies (phi=0)" in captured.out
        assert len(Path(out).read_text().splitlines()) == 150

    def test_anomalies_exit_one_and_are_reported(self, workdir, capsys, tmp_path):
        out = str(tmp_path / "hits.jsonl")
        code = cli.main(
            ["score", "--rules", workdir["rules"], "--data", workdir["test"], "--out", out]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "scored 60 rows:" in captured.out
        rows = [json.loads(line) for line in Path(out).read_text().splitlines()]
        assert len(rows) == 60
        flagged = {r["row"] for r in rows if r["is_anomaly"]}
        assert set(workdir["labeled_anomalies"]) <= flagged

    def test_ignoring_every_violated_rule_silences_the_alarm(self, workdir, capsys, tmp_path):
        first = str(tmp_path / "first.jsonl")
        cli.main(["score", "--rules", workdir["rules"], "--data", workdir["test"], "--out", first])
        lines = Path(first).read_text().splitlines()
        violated = sorted({v["rule_id"] for line in lines for v in json.loads(line)["violations"]})
        assert violated
        args = ["score", "--rules", workdir["rules"], "--data", workdir["test"],
                "--out", str(tmp_path / "second.jsonl")]
        for rid in violated:
            args += ["--ignore-rule", str(rid)]
        code = cli.main(args)
        captured = capsys.readouterr()
        assert code == 0
        assert "0 anomalies" in captured.out

    @pytest.mark.parametrize("phi", ["nan", "-0.5", "inf"])
    def test_negative_or_nan_phi_is_a_usage_error(self, workdir, capsys, tmp_path, phi):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["score", "--rules", workdir["rules"], "--data", workdir["test"],
                 "--out", str(tmp_path / "out.jsonl"), "--phi", phi]
            )
        assert exc.value.code == 2
        assert "phi must be non-negative" in capsys.readouterr().err

    def test_missing_rule_file_is_a_data_error(self, workdir, capsys, tmp_path):
        code = cli.main(
            ["score", "--rules", str(tmp_path / "nope.json"), "--data", workdir["test"],
             "--out", str(tmp_path / "out.jsonl")]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ")


# each command and the file it reads that holds a byte that is not UTF-8
NOT_UTF8_FILES = {
    "train --data": ("train", "--data"),
    "train --schema": ("train", "--schema"),
    "score --rules": ("score", "--rules"),
    "evaluate --labels": ("evaluate", "--labels"),
}


@pytest.mark.parametrize("command, flag", NOT_UTF8_FILES.values(), ids=NOT_UTF8_FILES.keys())
def test_a_file_that_is_not_utf8_is_a_data_error_naming_it(workdir, capsys, tmp_path, command, flag):
    args = {
        "train": ["train", "--data", workdir["train"], "--schema", workdir["schema"], "--theta", "0.2",
                  "--gamma", "0.3", "--out", str(tmp_path / "rules.json")],
        "score": ["score", "--rules", workdir["rules"], "--data", workdir["test"], "--out", str(tmp_path / "out.jsonl")],
        "evaluate": ["evaluate", "--rules", workdir["rules"], "--data", workdir["test"], "--labels", workdir["labels"]],
    }[command]
    at = args.index(flag) + 1
    content = Path(args[at]).read_bytes()
    bad = tmp_path / Path(args[at]).name
    bad.write_bytes(content[:5] + b"\xff" + content[6:])
    args[at] = str(bad)
    assert cli.main(args) == 3
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8: byte 0xff at offset 5 (invalid start byte)\n"


def _predicate(payload, text):
    return next(e for e in payload["predicates"] if e["text"] == text)


def _first(payload, kind):
    return next(e for e in payload["predicates"] if e["type"] == kind)


def _rule(payload, kind):
    return next(r for r in payload["rules"] if r["kind"] == kind)


# each edit turns the trained rule file into a malformed one
MALFORMED_RULE_FILES = {
    "index out of range": lambda p: p["rules"][0].update(antecedent=[999]),
    "negative index": lambda p: p["rules"][0].update(consequent=[-1]),
    "index not an integer": lambda p: p["rules"][0].update(consequent=["0"]),
    "missing column_stats": lambda p: p.pop("column_stats"),
    "missing rules": lambda p: p.pop("rules"),
    "missing predicates": lambda p: p.pop("predicates"),
    "rules not a list": lambda p: p.update(rules=5),
    "rules an object": lambda p: p.update(rules={}),
    "rules an empty string": lambda p: p.update(rules=""),
    "predicates an object": lambda p: p.update(predicates={}),
    "version 2": lambda p: p.update(version=2),
    "rule id out of place": lambda p: p["rules"][0].update(id=1),
    "rules reordered": lambda p: p["rules"].reverse(),
    "predicate id out of place": lambda p: p["predicates"][-1].update(id=0),
    "column_stats not an object": lambda p: p.update(column_stats=[]),
    "theta above 1": lambda p: p.update(theta=1.5),
    "theta true": lambda p: p.update(theta=True),
    "gamma negative": lambda p: p.update(gamma=-3),
    "max_set_size fractional": lambda p: p.update(max_set_size=2.5),
    "max_set_size true": lambda p: p.update(max_set_size=True),
    "rules empty": lambda p: p.update(rules=[]),
    # the last rule is the last column's boundary rule; popping it keeps the ids positional
    "last boundary rule dropped": lambda p: p["rules"].pop(),
    # a predicate moved to a column of the other kind, or to no column of the schema
    "interval on a categorical column": lambda p: _predicate(p, "5 <= X1 < 10").update(column="U1"),
    "range on a categorical column": lambda p: _first(p, "range").update(column="U1"),
    "equals on a continuous column": lambda p: _first(p, "equals").update(column="X1"),
    "equals on an unknown column": lambda p: _first(p, "equals").update(column="Q"),
    "membership on a continuous column": lambda p: _first(p, "membership").update(column="X1"),
    "disjunction item on a continuous column": lambda p: _first(p, "equals").update(
        type="disjunction", items=[["U1", "lo"], ["X1", "lo"]]
    ),
    # a predicate's training support must be a JSON number in (0, 1]
    "predicate support NaN": lambda p: p["predicates"][0].update(support=math.nan),
    "predicate support 5": lambda p: p["predicates"][0].update(support=5.0),
    "predicate support -1": lambda p: p["predicates"][0].update(support=-1.0),
    "predicate support 0": lambda p: p["predicates"][0].update(support=0),
    "predicate support a string": lambda p: p["predicates"][0].update(support="0.5"),
    "predicate support true": lambda p: p["predicates"][0].update(support=True),
    # a rule's kind fixes its shape
    "boundary rule with an antecedent": lambda p: _rule(p, "boundary").update(
        antecedent=_rule(p, "mined")["antecedent"]
    ),
    "boundary rule with support below 1": lambda p: _rule(p, "boundary").update(support=0.5),
    "mined rule without an antecedent": lambda p: _rule(p, "mined").update(antecedent=[]),
}

def _support_error(value):
    return re.escape(f"predicate 0 has support {value}, not a number in (0, 1]") + "$"


# the error each check gives, as a pattern
MALFORMED_RULE_FILE_ERRORS = {
    "predicate support NaN": _support_error("nan"),
    "predicate support 5": _support_error("5.0"),
    "predicate support -1": _support_error("-1.0"),
    "predicate support 0": _support_error("0"),
    "predicate support a string": _support_error("'0.5'"),
    "predicate support true": _support_error("True"),
    "boundary rule with an antecedent": r"boundary rule \d+ has [1-9]\d* antecedent predicates and support 1\.0$",
    "boundary rule with support below 1": r"boundary rule \d+ has 0 antecedent predicates and support 0\.5$",
    "mined rule without an antecedent": r"mined rule 0 has 0 antecedent predicates and support 0\.\d+$",
}


@pytest.mark.parametrize("edit", MALFORMED_RULE_FILES.values(), ids=MALFORMED_RULE_FILES.keys())
def test_malformed_rule_file_is_a_data_error(workdir, capsys, tmp_path, edit):
    with open(workdir["rules"]) as fh:
        payload = json.load(fh)
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = cli.main(
        ["score", "--rules", str(bad), "--data", workdir["test"], "--out", str(tmp_path / "out.jsonl")]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"error: {bad}: malformed rule file")


@pytest.mark.parametrize("case", MALFORMED_RULE_FILE_ERRORS)
def test_rule_file_checks_name_what_they_refuse(workdir, tmp_path, case):
    with open(workdir["rules"]) as fh:
        payload = json.load(fh)
    MALFORMED_RULE_FILES[case](payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=MALFORMED_RULE_FILE_ERRORS[case]):
        load_ruleset(str(bad))


def _u2(payload):
    return next(c for c in payload["columns"] if c["name"] == "U2")


# each edit turns the training schema (U2 values b, d, a, c) into a malformed one
MALFORMED_SCHEMAS = {
    "columns not a list": lambda p: p.update(columns=5),
    "entry not an object": lambda p: p["columns"].__setitem__(0, 5),
    "values a string": lambda p: _u2(p).update(values="bdac"),
    "values not strings": lambda p: _u2(p).update(values=[1, 2]),
    "duplicate values": lambda p: _u2(p).update(values=["b", "b"]),
    "only entry not an object": lambda p: p.update(columns=[5]),
    "unknown kind": lambda p: _u2(p).update(kind="ordinal"),
}


@pytest.mark.parametrize("edit", MALFORMED_SCHEMAS.values(), ids=MALFORMED_SCHEMAS.keys())
def test_malformed_schema_is_a_data_error(workdir, capsys, tmp_path, edit):
    with open(workdir["schema"]) as fh:
        payload = json.load(fh)
    edit(payload)
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps(payload))
    code = cli.main(
        ["train", "--data", workdir["train"], "--schema", str(bad), "--theta", "0.2",
         "--gamma", "0.3", "--max-set-size", "4", "--out", str(tmp_path / "rules.json")]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"error: {bad}: ")


def _json_paths(node, path=()):
    """Every path into a JSON tree, the root's () first."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _json_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _json_paths(child, path + (i,))


def _parent(payload, path):
    for step in path[:-1]:
        payload = payload[step]
    return payload


JSON_VALUES = [None, True, False, 0, 7, -1, 0.5, -2.5, "", "x", [], [0], {}, {"a": 1}]


def _delete_or_retype(draw, payload, how):
    """The payload with one random key deleted or one value swapped for a
    JSON value of another type."""
    paths = list(_json_paths(payload))
    if how == "delete":
        path = draw(st.sampled_from([p for p in paths if p and isinstance(p[-1], str)]))
        del _parent(payload, path)[path[-1]]
    else:
        path = draw(st.sampled_from(paths))
        old = _parent(payload, path)[path[-1]] if path else payload
        new = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
        if not path:
            return new
        _parent(payload, path)[path[-1]] = new
    return payload


@st.composite
def mutated_rule_files(draw, payload):
    """The payload with one random key deleted, one value swapped for a JSON
    value of another type, or one rule's predicate index out of range."""
    how = draw(st.sampled_from(["delete", "retype", "index"]))
    if how != "index":
        return _delete_or_retype(draw, payload, how)
    n = len(payload["predicates"])
    sides = [(i, side) for i, r in enumerate(payload["rules"]) for side in ("antecedent", "consequent") if r[side]]
    i, side = draw(st.sampled_from(sides))
    j = draw(st.integers(0, len(payload["rules"][i][side]) - 1))
    payload["rules"][i][side][j] = draw(st.sampled_from([n, n + 3, -1, -n - 1]))
    return payload


@st.composite
def mutated_schemas(draw, payload):
    return _delete_or_retype(draw, payload, draw(st.sampled_from(["delete", "retype"])))


@st.composite
def mutated_csvs(draw, content):
    """A CSV's bytes with one cell deleted, one number swapped for nan or
    1_0, a blank line inserted, or one quote, CR, NUL or non-UTF-8 byte
    inserted anywhere."""
    lines = content.split(b"\n")
    how = draw(st.sampled_from(["delete a cell", "swap a number", "blank line", "insert a byte"]))
    if how == "insert a byte":
        at = draw(st.integers(0, len(content)))
        return content[:at] + draw(st.sampled_from([b'"', b"\r", b"\x00", b"\xff"])) + content[at:]
    i = draw(st.integers(1, len(lines) - 2))
    if how == "blank line":
        lines.insert(i, draw(st.sampled_from([b"", b"\r"])))
        return b"\n".join(lines)
    cells = lines[i].removesuffix(b"\r").split(b",")
    j = draw(st.integers(0, len(cells) - 1))
    if how == "delete a cell":
        del cells[j]
    else:
        j = draw(st.sampled_from([k for k, cell in enumerate(cells) if cell[:1].isdigit()]))
        cells[j] = draw(st.sampled_from([b"nan", b"1_0"]))
    lines[i] = b",".join(cells) + b"\r"
    return b"\n".join(lines)


@given(data=st.data())
def test_mutated_rule_file_keeps_the_exit_code_contract(workdir, data):
    with open(workdir["rules"]) as fh:
        payload = data.draw(mutated_rule_files(json.load(fh)))
    rules = workdir["root"] / "mutated.json"
    out = workdir["root"] / "mutated.jsonl"
    rules.write_text(json.dumps(payload))
    out.unlink(missing_ok=True)
    code = cli.main(["score", "--rules", str(rules), "--data", workdir["test"], "--out", str(out)])
    assert code in {0, 1, 3}
    if code == 1:
        assert len(out.read_text().splitlines()) == workdir["test_rows"]


@given(data=st.data())
def test_mutated_data_and_schema_keep_the_exit_code_contract(workdir, data):
    root = workdir["root"]
    command = data.draw(st.sampled_from(["train", "score", "explain"]))
    csv_path = root / "mutated.csv"
    schema_path = root / "mutated_schema.json"
    out = root / "mutated.out"
    out.unlink(missing_ok=True)
    with open(workdir["schema"]) as fh:
        schema = json.load(fh)
    original = Path(workdir["train" if command == "train" else "test"]).read_bytes()
    if command == "train" and data.draw(st.booleans()):
        schema = data.draw(mutated_schemas(schema))
        csv_path.write_bytes(original)
    else:
        csv_path.write_bytes(data.draw(mutated_csvs(original)))
    schema_path.write_text(json.dumps(schema))
    args = {
        "train": ["train", "--schema", str(schema_path), "--theta", "0.2", "--gamma", "0.3",
                  "--max-set-size", "4", "--out", str(out)],
        "score": ["score", "--rules", workdir["rules"], "--out", str(out)],
        "explain": ["explain", "--rules", workdir["rules"], "--row", str(workdir["labeled_anomalies"][0])],
    }[command]
    try:
        code = cli.main(args + ["--data", str(csv_path)])
    except SystemExit as exc:
        code = exc.code
    assert code in {0, 1, 2, 3}
    if code == 1:
        assert command == "score"
        rows = load_csv(str(csv_path), load_ruleset(workdir["rules"]).schema.copy()).row_count
        assert len(out.read_text().splitlines()) == rows


@pytest.fixture(scope="module")
def scored_table(workdir):
    """A few hundred planted rows, some of them violated, and the row-loop
    oracle's reports for them."""
    test, _ = planted_rule_data(300, seed=53, violation_rate=0.2)
    path = str(workdir["root"] / "scored.csv")
    write_csv(test, path)
    ruleset = load_ruleset(workdir["rules"])
    dataset = load_csv(path, ruleset.schema.copy())
    reference = reports_by_row_loop(ruleset, dataset, DetectionConfig())
    assert sum(r.is_anomaly for r in reference) >= 10
    return workdir["rules"], path, ruleset, reference


def test_score_builds_no_per_row_report(scored_table, tmp_path, monkeypatch):
    rules, path, ruleset, reference = scored_table
    built = []

    class CountingReport(detect_module.AnomalyReport):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(detect_module, "AnomalyReport", CountingReport)
    out = tmp_path / "report.jsonl"
    assert cli.main(["score", "--rules", rules, "--data", path, "--out", str(out)]) == 1
    assert built == []
    expected = tmp_path / "expected.jsonl"
    write_reports_by_json_dumps(reference, ruleset, str(expected))
    assert out.read_bytes() == expected.read_bytes()


def test_score_and_explain_give_the_benchmark_tracer_its_counts(scored_table, capsys, tmp_path, monkeypatch):
    """The benchmark's tracer wraps cli.detect and cli.write_reports and
    counts from what they return and write; the wrappers here take the
    same counts and must find what the row-loop oracle finds."""
    rules, path, ruleset, reference = scored_table
    seen = {"detect": [], "write_reports": []}
    real_detect, real_write = cli.detect, cli.write_reports

    def traced_detect(*args, **kwargs):
        reports = real_detect(*args, **kwargs)
        seen["detect"].append(
            (sum(len(r.violations) for r in reports), sum(1 for r in reports if r.is_anomaly))
        )
        return reports

    def traced_write(*args, **kwargs):
        result = real_write(*args, **kwargs)
        seen["write_reports"].append(os.path.getsize(args[2]))
        return result

    monkeypatch.setattr(cli, "detect", traced_detect)
    monkeypatch.setattr(cli, "write_reports", traced_write)
    out = tmp_path / "report.jsonl"
    assert cli.main(["score", "--rules", rules, "--data", path, "--out", str(out)]) == 1
    flagged = sum(r.is_anomaly for r in reference)
    assert capsys.readouterr().out == f"scored {len(reference)} rows: {flagged} anomalies (phi=0)\nwrote {out}\n"
    row = next(r.row for r in reference if r.is_anomaly)
    assert cli.main(["explain", "--rules", rules, "--data", path, "--row", str(row)]) == 0

    expected = tmp_path / "expected.jsonl"
    write_reports_by_json_dumps(reference, ruleset, str(expected))
    assert seen["detect"] == [
        (sum(len(r.violations) for r in reference), flagged),
        (len(reference[row].violations), 1),
    ]
    assert seen["write_reports"] == [os.path.getsize(expected)]


class TestExplain:
    def test_row_text_matches_detecting_the_whole_table(self, workdir, capsys):
        ruleset = load_ruleset(workdir["rules"])
        reports = detect(ruleset, load_csv(workdir["test"], ruleset.schema.copy()), DetectionConfig())
        flagged = [r.row for r in reports if r.is_anomaly and r.row > 0]
        clean = [r.row for r in reports if not r.violations and r.row > 0]
        args = ["explain", "--rules", workdir["rules"], "--data", workdir["test"], "--row"]
        assert cli.main(args + [str(flagged[0])]) == 0
        assert capsys.readouterr().out == explain(reports[flagged[0]], ruleset).text() + "\n"
        assert cli.main(args + [str(clean[0])]) == 3
        assert f"row {clean[0]} violates no rules" in capsys.readouterr().err

    def test_anomalous_row(self, workdir, capsys):
        row = workdir["labeled_anomalies"][0]
        code = cli.main(
            ["explain", "--rules", workdir["rules"], "--data", workdir["test"], "--row", str(row)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"row {row}: anomaly score" in captured.out
        assert "- rule " in captured.out
        assert "failed conditions:" in captured.out
        assert "implicated columns:" in captured.out

    def test_clean_row_is_an_error(self, workdir, capsys):
        code = cli.main(
            ["explain", "--rules", workdir["rules"], "--data", workdir["train"], "--row", "0"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "violates no rules" in captured.err

    def test_negative_row_is_a_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explain", "--rules", workdir["rules"], "--data", workdir["test"], "--row", "-1"])
        assert exc.value.code == 2
        assert "error: argument --row: expected a non-negative integer, got -1\n" in capsys.readouterr().err

    def test_row_out_of_range(self, workdir, capsys):
        code = cli.main(
            ["explain", "--rules", workdir["rules"], "--data", workdir["test"], "--row", "999"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "row 999 out of range" in captured.err

    def test_row_far_out_of_range_names_the_files_row_count(self, workdir, capsys):
        args = ["explain", "--rules", workdir["rules"], "--data", workdir["test"], "--row", "1000000000000"]
        message = f"row 1000000000000 out of range: file has {workdir['test_rows']} rows"
        with pytest.raises(DataError) as exc:
            cli.cmd_explain(cli.build_parser().parse_args(args))
        assert str(exc.value) == message
        assert cli.main(args) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_only_the_row_explained_is_read(self, workdir, capsys, tmp_path):
        ruleset = load_ruleset(workdir["rules"])
        reports = detect(ruleset, load_csv(workdir["test"], ruleset.schema.copy()), DetectionConfig())
        row = next(r.row for r in reports if r.is_anomaly and 0 < r.row < len(reports) - 1)
        args = ["explain", "--rules", workdir["rules"], "--row"]
        assert cli.main(args + [str(row), "--data", workdir["test"]]) == 0
        expected = capsys.readouterr().out
        # write_csv ends lines with CRLF; line i + 1 is row i, and X1 is its first cell
        lines = Path(workdir["test"]).read_bytes().split(b"\r\n")
        for i in (row - 1, row + 1):
            lines[i + 1] = b"abc" + lines[i + 1][lines[i + 1].index(b",") :]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DataError) as exc:
            load_csv(str(bad), ruleset.schema.copy())
        assert f"row {row - 1}, column 'X1': cannot parse 'abc'" in str(exc.value)
        assert cli.main(args + [str(row), "--data", str(bad)]) == 0
        assert capsys.readouterr().out == expected
        assert cli.main(args + [str(row - 1), "--data", str(bad)]) == 3
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert cli.main(args + [str(row + 1), "--data", str(bad)]) == 3
        assert capsys.readouterr().err == f"error: {bad}: row {row + 1}, column 'X1': cannot parse 'abc' as a number\n"


class TestEvaluate:
    def test_metrics_come_back_as_json(self, workdir, capsys):
        code = cli.main(
            ["evaluate", "--rules", workdir["rules"], "--data", workdir["test"],
             "--labels", workdir["labels"]]
        )
        captured = capsys.readouterr()
        assert code == 0
        metrics = json.loads(captured.out)
        assert set(metrics) == {
            "auc", "pauc", "max_fpr", "phi", "precision", "recall", "f1", "degenerate"
        }
        assert 0.0 <= metrics["auc"] <= 1.0
        assert 0.0 <= metrics["pauc"] <= 1.0

    def test_single_class_labels_are_a_data_error(self, workdir, capsys, tmp_path):
        flat = tmp_path / "allnormal.txt"
        flat.write_text("0\n" * 60)
        code = cli.main(
            ["evaluate", "--rules", workdir["rules"], "--data", workdir["test"],
             "--labels", str(flat)]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "at least one anomaly" in captured.err

    def test_nan_phi_is_a_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["evaluate", "--rules", workdir["rules"], "--data", workdir["test"],
                 "--labels", workdir["labels"], "--phi", "nan"]
            )
        assert exc.value.code == 2
        assert "phi must be non-negative" in capsys.readouterr().err

    def test_label_count_mismatch(self, workdir, capsys, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("1\n0\n")
        code = cli.main(
            ["evaluate", "--rules", workdir["rules"], "--data", workdir["test"],
             "--labels", str(short)]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "label count 2 does not match row count 60" in captured.err
        assert captured.err == f"error: {short}: label count 2 does not match row count 60\n"


class TestSweep:
    def test_label_count_mismatch_names_the_file(self, workdir, capsys, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("1\n0\n")
        code = cli.main(
            ["sweep", "--train", workdir["train"], "--schema", workdir["schema"],
             "--data", workdir["test"], "--labels", str(short),
             "--theta-grid", "0.2", "--gamma-grid", "0.0", "--out", str(tmp_path / "grid.csv")]
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {short}: label count 2 does not match row count 60\n"
        assert not (tmp_path / "grid.csv").exists()

    def test_grid_csv(self, workdir, capsys, tmp_path):
        out = str(tmp_path / "grid.csv")
        code = cli.main(
            ["sweep", "--train", workdir["train"], "--schema", workdir["schema"],
             "--data", workdir["test"], "--labels", workdir["labels"],
             "--theta-grid", "0.2,0.3", "--gamma-grid", "0.0",
             "--max-set-size", "4", "--out", out]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "swept 2 cells (0 failed)" in captured.out
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "theta,gamma,rule_count,auc,pauc,f1,precision,recall"
        assert len(lines) == 3

    def test_failed_cell_is_a_warning(self, workdir, capsys, tmp_path):
        zeros = write_text(tmp_path / "zeros.txt", "0\n" * workdir["test_rows"])
        out = str(tmp_path / "grid.csv")
        code = cli.main(
            ["sweep", "--train", workdir["train"], "--schema", workdir["schema"],
             "--data", workdir["test"], "--labels", zeros,
             "--theta-grid", "0.2", "--gamma-grid", "0.0", "--out", out]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == (
            "warning: cell theta=0.2 gamma=0 failed: ROC needs at least one anomaly and one normal label\n"
        )
        assert "swept 1 cells (1 failed)" in captured.out

    def test_empty_grid_is_a_usage_error(self, workdir, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["sweep", "--train", workdir["train"], "--schema", workdir["schema"],
                 "--data", workdir["test"], "--labels", workdir["labels"],
                 "--theta-grid", ",", "--gamma-grid", "0.0", "--out", str(tmp_path / "grid.csv")]
            )
        assert exc.value.code == 2
        assert "error: argument --theta-grid: empty theta grid\n" in capsys.readouterr().err

    def test_out_of_range_grid_value_is_a_usage_error(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["sweep", "--train", workdir["train"], "--schema", workdir["schema"],
                 "--data", workdir["test"], "--labels", workdir["labels"],
                 "--theta-grid", "0.2,1.5", "--gamma-grid", "0.0",
                 "--out", str(tmp_path / "grid.csv")]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, kind", [("--theta-grid", "theta"), ("--gamma-grid", "gamma")])
    def test_unparsable_grid_item_is_named(self, workdir, capsys, tmp_path, flag, kind):
        grids = {"--theta-grid": "0.2", "--gamma-grid": "0.3"}
        grids[flag] = "0.2, abc"
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["sweep", "--train", workdir["train"], "--schema", workdir["schema"],
                 "--data", workdir["test"], "--labels", workdir["labels"],
                 *[a for pair in grids.items() for a in pair], "--out", str(tmp_path / "grid.csv")]
            )
        assert exc.value.code == 2
        assert f"error: argument {flag}: invalid {kind} value: 'abc'\n" in capsys.readouterr().err


# every command's required arguments; no file is read before the arguments parse
REQUIRED_ARGS = {
    "train": ["--data", "missing.csv", "--schema", "missing.json", "--theta", "0.2", "--gamma", "0.3",
              "--out", "rules.json"],
    "sweep": ["--train", "missing.csv", "--schema", "missing.json", "--data", "missing.csv",
              "--labels", "missing.txt", "--theta-grid", "0.2", "--gamma-grid", "0.3", "--out", "grid.csv"],
    "score": ["--rules", "missing.json", "--data", "missing.csv", "--out", "out.jsonl"],
    "evaluate": ["--rules", "missing.json", "--data", "missing.csv", "--labels", "missing.txt"],
}

TWO_LABELS = LabeledScores(np.array([0.9, 0.1]), np.array([1, 0]))

# an out-of-range value for each checked argument, and the library call that rejects it
OUT_OF_RANGE = [
    ("train", "--theta", "1.5", lambda: MiningConfig(1.5, 0.3)),
    ("train", "--theta", "nan", lambda: MiningConfig(float("nan"), 0.3)),
    ("train", "--gamma", "1", lambda: MiningConfig(0.2, 1.0)),
    ("train", "--max-set-size", "1", lambda: MiningConfig(0.2, 0.3, 1)),
    ("train", "--max-set-size", "-2", lambda: MiningConfig(0.2, 0.3, -2)),
    ("sweep", "--theta-grid", "0.2,0", lambda: MiningConfig(0.0, 0.3)),
    ("sweep", "--gamma-grid", "0.3,-0.5", lambda: MiningConfig(0.2, -0.5)),
    ("sweep", "--max-set-size", "1", lambda: MiningConfig(0.2, 0.3, 1)),
    ("sweep", "--max-fpr", "0", lambda: standardized_pauc(TWO_LABELS, 0.0)),
    ("sweep", "--max-fpr", "1.5", lambda: standardized_pauc(TWO_LABELS, 1.5)),
    ("score", "--phi", "-0.5", lambda: DetectionConfig(phi=-0.5)),
    ("score", "--phi", "inf", lambda: DetectionConfig(phi=float("inf"))),
    ("evaluate", "--phi", "nan", lambda: DetectionConfig(phi=float("nan"))),
    ("evaluate", "--phi", "inf", lambda: DetectionConfig(phi=float("inf"))),
    ("evaluate", "--max-fpr", "2", lambda: standardized_pauc(TWO_LABELS, 2.0)),
]


@pytest.mark.parametrize(
    "command, flag, text, library_call",
    OUT_OF_RANGE,
    ids=[f"{c} {f} {t}" for c, f, t, _ in OUT_OF_RANGE],
)
def test_out_of_range_value_is_a_usage_error_with_the_library_message(
    capsys, tmp_path, monkeypatch, command, flag, text, library_call
):
    with pytest.raises(ValueError) as raised:
        library_call()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *REQUIRED_ARGS[command], flag, text])
    assert exc.value.code == 2
    assert f"error: argument {flag}: {raised.value}\n" in capsys.readouterr().err


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "invarmine", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "usage: invarmine" in proc.stdout


def test_commands_print_only_their_documented_lines(tmp_path):
    """train, score and explain as a separate process in development mode,
    with every warning an error: standard output is exactly the lines the
    README documents and nothing reaches standard error (no warning, log
    line or unclosed-file ResourceWarning)."""
    train, _ = planted_rule_data(400, seed=61)
    test, _ = planted_rule_data(120, seed=62, violation_rate=0.2)
    schema, train_csv, test_csv = tmp_path / "schema.json", tmp_path / "train.csv", tmp_path / "test.csv"
    rules, report = tmp_path / "rules.json", tmp_path / "report.jsonl"
    save_schema(train.schema, str(schema))
    write_csv(train, str(train_csv))
    write_csv(test, str(test_csv))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "invarmine", *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.stderr == ""
        return proc.returncode, proc.stdout.splitlines()

    code, lines = run("train", "--data", str(train_csv), "--schema", str(schema),
                      "--theta", "0.2", "--gamma", "0.3", "--out", str(rules))
    assert code == 0
    ruleset = load_ruleset(str(rules))
    mined = sum(r.kind == mining.MINED for r in ruleset.rules)
    assert lines[:3] == [
        f"rows: {train.row_count}",
        f"predicates: {len(train_ruleset(train, MiningConfig(0.2, 0.3)).catalog)}",
        f"rules: {mined} mined + {len(ruleset.rules) - mined} boundary = {len(ruleset.rules)}",
    ]
    stage = r"[a-z]+ \d+\.\d{3}s"
    assert re.fullmatch(rf"timings: {stage}( \| {stage})* \| total \d+\.\d{{3}}s", lines[3])
    assert lines[4:] == [f"wrote {rules}"]

    dataset = load_csv(str(test_csv), ruleset.schema.copy())
    reports = detect(ruleset, dataset, DetectionConfig())
    flagged = reports.anomaly_count()
    assert flagged > 0
    code, lines = run("score", "--rules", str(rules), "--data", str(test_csv), "--out", str(report))
    assert code == 1
    assert lines == [f"scored {test.row_count} rows: {flagged} anomalies (phi=0)", f"wrote {report}"]

    row = next(r.row for r in reports if r.is_anomaly)
    code, lines = run("explain", "--rules", str(rules), "--data", str(test_csv), "--row", str(row))
    assert code == 0
    assert lines == explain(reports[row], ruleset).text().splitlines()
