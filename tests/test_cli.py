"""Command-line interface: exit codes, outputs, and file handling."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invarmine import cli, mining
from invarmine.data import load_csv, save_schema, write_csv
from invarmine.detect import DetectionConfig, detect, explain
from invarmine.mining import load_ruleset
from invarmine.synth import planted_rule_data


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

    def test_zero_workers_is_a_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "train",
                    "--data", workdir["train"],
                    "--schema", workdir["schema"],
                    "--theta", "0.2",
                    "--gamma", "0.3",
                    "--workers", "0",
                    "--out", "unused.json",
                ]
            )
        assert exc.value.code == 2

    def test_enumeration_past_its_bound_is_an_error(self, workdir, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(mining, "_MAX_CANDIDATE_CHECKS", 5)
        code = cli.main(
            ["train", "--data", workdir["train"], "--schema", workdir["schema"], "--theta", "0.2",
             "--gamma", "0.3", "--max-set-size", "0", "--out", str(tmp_path / "rules.json")]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: frequent-set enumeration passed 5 candidate checks")
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

    def test_missing_rule_file_is_a_data_error(self, workdir, capsys, tmp_path):
        code = cli.main(
            ["score", "--rules", str(tmp_path / "nope.json"), "--data", workdir["test"],
             "--out", str(tmp_path / "out.jsonl")]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ")


# each edit turns the trained rule file into a malformed one
MALFORMED_RULE_FILES = {
    "index out of range": lambda p: p["rules"][0].update(antecedent=[999]),
    "negative index": lambda p: p["rules"][0].update(consequent=[-1]),
    "index not an integer": lambda p: p["rules"][0].update(consequent=["0"]),
    "missing column_stats": lambda p: p.pop("column_stats"),
    "missing rules": lambda p: p.pop("rules"),
    "missing predicates": lambda p: p.pop("predicates"),
    "rules not a list": lambda p: p.update(rules=5),
    "column_stats not an object": lambda p: p.update(column_stats=[]),
    "catalog_size out of range": lambda p: p.update(catalog_size=-1),
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

    def test_row_out_of_range(self, workdir, capsys):
        code = cli.main(
            ["explain", "--rules", workdir["rules"], "--data", workdir["test"], "--row", "999"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "row 999 out of range" in captured.err


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


class TestSweep:
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

    def test_out_of_range_grid_value_is_a_usage_error(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["sweep", "--train", workdir["train"], "--schema", workdir["schema"],
                 "--data", workdir["test"], "--labels", workdir["labels"],
                 "--theta-grid", "0.2,1.5", "--gamma-grid", "0.0",
                 "--out", str(tmp_path / "grid.csv")]
            )
        assert exc.value.code == 2


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "invarmine", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "usage: invarmine" in proc.stdout
