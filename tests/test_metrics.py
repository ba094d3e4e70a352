"""Metric computations and the deterministic CSV/JSON writers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab.metrics import RunRecord, mean_and_se, metrics_header
from noisylab.metrics import test_error as error_rate
from noisylab.metrics import (
    selection_precision,
    summarize_runs,
    write_metrics_csv,
    write_summary_json,
)


def record(epoch, err, precision=None, selected=(2, 1)):
    return RunRecord(
        epoch=epoch,
        test_error=err,
        precision=precision,
        train_selected=sum(selected),
        selected_per_class=tuple(selected),
    )


def run(run_id, records, seed=1, variant="all", lam=1.0):
    return (run_id, seed, variant, lam), records


class TestScalars:
    def test_error_rate_counts_mismatches(self):
        assert error_rate(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2])) == pytest.approx(0.25)
        assert error_rate(np.array([1, 1]), np.array([1, 1])) == 0.0

    def test_error_rate_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            error_rate(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            error_rate(np.array([0, 1]), np.array([0]))

    def test_selection_precision(self):
        clean = np.array([True, False, True, True])
        assert selection_precision(np.array([0, 1]), clean) == pytest.approx(0.5)
        assert selection_precision(np.array([0, 2, 3]), clean) == pytest.approx(1.0)

    def test_selection_precision_rejects_empty(self):
        with pytest.raises(ValueError):
            selection_precision(np.array([], dtype=int), np.array([True]))

    def test_mean_and_se_known_values(self):
        mean, se = mean_and_se([0.1, 0.12, 0.14])
        assert mean == pytest.approx(0.12)
        # sample sd 0.02 over sqrt(3)
        assert se == pytest.approx(0.011547005383792516, rel=1e-9)

    def test_single_value_has_no_se(self):
        mean, se = mean_and_se([0.5])
        assert mean == 0.5
        assert se is None

    def test_mean_and_se_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_and_se([])


class TestMetricsCsv:
    def test_header_layout(self):
        assert metrics_header(3) == [
            "run_id",
            "seed",
            "variant",
            "lambda",
            "epoch",
            "train_selected",
            "precision",
            "test_error",
            "selected_class_0",
            "selected_class_1",
            "selected_class_2",
        ]

    def test_body_content_and_blank_precision(self, tmp_path):
        path = tmp_path / "metrics.csv"
        runs = [run("all-stacked", [record(0, 0.25, None), record(1, 0.125, 0.75)])]
        write_metrics_csv(path, runs)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("run_id,seed,variant")
        assert lines[1] == "all-stacked,1,all,1.0,0,3,,0.25,2,1"
        assert lines[2] == "all-stacked,1,all,1.0,1,3,0.75,0.125,2,1"

    def test_rows_sorted_regardless_of_input_order(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        r1 = run("ol", [record(0, 0.3)], seed=2, variant="ol")
        r2 = run("all", [record(0, 0.2)], seed=1)
        write_metrics_csv(a, [r1, r2])
        write_metrics_csv(b, [r2, r1])
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_across_calls(self, tmp_path):
        runs = [run("run", [record(e, 0.5 / (e + 1), 0.9) for e in range(5)])]
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        write_metrics_csv(p1, runs)
        write_metrics_csv(p2, runs)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_rejects_empty_runs(self, tmp_path):
        with pytest.raises(ValueError):
            write_metrics_csv(tmp_path / "metrics.csv", [])

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_cells_follow_the_repr_rule(self, tmp_path_factory, data):
        # the cell rule the writer has always followed, kept here as the oracle
        def cell(value):
            if value is None:
                return ""
            return repr(value) if isinstance(value, float) else str(value)

        floats = st.sampled_from([-0.0, 5e-324, 1e300]) | st.floats()
        k = data.draw(st.integers(1, 4))
        runs = []
        for _ in range(data.draw(st.integers(1, 3))):
            run_id = data.draw(st.text("abcxyz019-.", min_size=1, max_size=12))
            identity = (
                run_id,
                data.draw(st.integers(0, 2**31)),
                data.draw(st.sampled_from(["none", "ol", "pl", "all"])),
                data.draw(floats),
            )
            records = [
                RunRecord(
                    epoch=data.draw(st.integers(0, 200)),
                    test_error=data.draw(floats),
                    precision=data.draw(st.none() | floats),
                    train_selected=data.draw(st.integers(0, 10**6)),
                    selected_per_class=tuple(data.draw(st.lists(st.integers(0, 999), min_size=k, max_size=k))),
                )
                for _ in range(data.draw(st.integers(1, 3)))
            ]
            runs.append((identity, records))
        path = tmp_path_factory.mktemp("csv") / "metrics.csv"
        write_metrics_csv(path, runs)
        expected = [
            ",".join(
                cell(c)
                for c in (*identity, r.epoch, r.train_selected, r.precision, r.test_error) + r.selected_per_class
            )
            for identity, records in runs
            for r in records
        ]
        body = path.read_bytes().decode("utf-8")
        assert body.endswith("\n") and "\r" not in body
        assert sorted(body.splitlines()[1:]) == sorted(expected)


class TestSummary:
    def test_best_and_final(self):
        runs = [
            run("all", [record(0, 0.4, None), record(1, 0.1, 0.9), record(2, 0.2, 0.8)]),
            run("all", [record(0, 0.5, None), record(1, 0.3, 0.7), record(2, 0.3, 0.7)], seed=2),
        ]
        summary = summarize_runs(runs)
        assert summary["runs"][0]["best_test_error"] == pytest.approx(0.1)
        assert summary["runs"][0]["final_test_error"] == pytest.approx(0.2)
        group = summary["groups"][0]
        assert group["trials"] == 2
        assert group["best_test_error_mean"] == pytest.approx(0.2)
        assert group["best_test_error_se"] is not None

    def test_group_aggregates_in_input_order(self):
        # the standard error's last bit depends on summation order
        errors = {3: 0.7, 1: 0.1, 2: 0.2}
        runs = [run("all", [record(0, err, 0.9)], seed=seed) for seed, err in errors.items()]
        (group,) = summarize_runs(runs)["groups"]
        assert group["best_test_error_se"] == mean_and_se([0.7, 0.1, 0.2])[1]
        assert group["best_test_error_se"] == 0.18559214542766742
        assert [r["seed"] for r in summarize_runs(runs)["runs"]] == [1, 2, 3]

    def test_json_writer_is_deterministic(self, tmp_path):
        summary = summarize_runs([run("run", [record(0, 0.3, 0.9)])])
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        write_summary_json(p1, summary)
        write_summary_json(p2, summary)
        assert p1.read_bytes() == p2.read_bytes()
        parsed = json.loads(p1.read_text())
        assert parsed["groups"][0]["best_test_error_se"] is None
