"""Tests for ExperimentResult serialization and the RESULTS.json document."""

from __future__ import annotations

import json

import pytest

from repro.analysis.report import Table
from repro.core.exceptions import OrchestrationError
from repro.experiments.orchestrator import (
    ExperimentResult,
    execute_spec,
    json_body,
    jsonify,
    merge_results_documents,
    results_document,
    write_results_document,
)
from repro.experiments.orchestrator import registry


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def small_result(experiment_id="demo", value=1.5) -> ExperimentResult:
    table = Table(headers=("metric", "value"), title="t")
    table.add_row("v", value)
    return ExperimentResult(
        experiment_id=experiment_id,
        params={"x": 1},
        tables=(table,),
        metrics={"value": value, "ok": True},
        seed=3,
        wall_time_seconds=0.5,
        cached=False,
    )


class TestJsonify:
    def test_scalars_pass_through(self):
        assert jsonify({"a": 1, "b": 1.5, "c": True, "d": None, "e": "x"}) == {
            "a": 1,
            "b": 1.5,
            "c": True,
            "d": None,
            "e": "x",
        }

    def test_tuples_become_lists(self):
        assert jsonify((1, (2, 3))) == [1, [2, 3]]

    def test_numpy_scalars_unwrap(self):
        numpy = pytest.importorskip("numpy")
        assert jsonify(numpy.float64(0.25)) == 0.25
        assert jsonify(numpy.int64(7)) == 7
        out = jsonify({"flag": numpy.bool_(True)})
        assert out == {"flag": True}

    def test_non_string_keys_rejected(self):
        with pytest.raises(OrchestrationError, match="non-string key"):
            jsonify({1: "a"})

    def test_unserializable_values_rejected(self):
        with pytest.raises(OrchestrationError):
            jsonify({"x": object()})

    def test_non_finite_floats_rejected(self):
        with pytest.raises(OrchestrationError):
            jsonify(float("nan"))


class TestExperimentResultSerialization:
    def test_canonical_excludes_volatile_fields(self):
        result = small_result()
        canonical = result.canonical_dict()
        assert "wall_time_seconds" not in canonical
        assert "cached" not in canonical
        full = result.to_dict()
        assert full["wall_time_seconds"] == 0.5
        assert full["cached"] is False

    def test_volatile_fields_do_not_change_canonical_json(self):
        result = small_result()
        other = result.with_volatile(wall_time_seconds=99.0, cached=True)
        assert json_body(result.canonical_dict()) == json_body(other.canonical_dict())

    def test_from_dict_round_trip(self):
        result = small_result()
        rebuilt = ExperimentResult.from_dict(result.to_dict())
        assert json_body(rebuilt.canonical_dict()) == json_body(result.canonical_dict())
        assert rebuilt.wall_time_seconds == result.wall_time_seconds

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(OrchestrationError):
            ExperimentResult.from_dict({"tables": []})

    def test_real_experiment_round_trips_through_json_text(self):
        result = execute_spec(registry.get_spec("example1"))
        rebuilt = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert json_body(rebuilt.canonical_dict()) == json_body(result.canonical_dict())
        # CI's memory ceilings read this field; a zero would pass them all.
        assert result.peak_rss_kb > 0


class TestResultsDocument:
    def test_document_shape(self):
        document = results_document([small_result("a"), small_result("b")], shard="1/2")
        assert document["schema_version"] == 1
        assert sorted(document["results"]) == ["a", "b"]
        assert document["run"]["experiments"] == ["a", "b"]
        assert document["run"]["shards"] == ["1/2"]
        assert document["run"]["cached"] == {"a": False, "b": False}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(OrchestrationError, match="duplicate"):
            results_document([small_result("a"), small_result("a")])

    def test_merge_unions_disjoint_documents(self):
        merged = merge_results_documents(
            [
                results_document([small_result("a")], shard="1/2"),
                results_document([small_result("b")], shard="2/2"),
            ]
        )
        assert sorted(merged["results"]) == ["a", "b"]
        assert merged["run"]["shards"] == ["1/2", "2/2"]

    def test_merge_accepts_identical_overlap(self):
        document = results_document([small_result("a")])
        merged = merge_results_documents([document, document])
        assert sorted(merged["results"]) == ["a"]

    def test_merge_rejects_conflicting_overlap(self):
        left = results_document([small_result("a", value=1.0)])
        right = results_document([small_result("a", value=2.0)])
        with pytest.raises(OrchestrationError, match="conflicting"):
            merge_results_documents([left, right])

    def test_merge_rejects_empty_input(self):
        with pytest.raises(OrchestrationError):
            merge_results_documents([])

    def test_merge_rejects_a_non_object_document(self):
        document = results_document([small_result("a")])
        with pytest.raises(OrchestrationError, match="must be an object, got list"):
            merge_results_documents([document, [document]])

    def test_merge_rejects_wrong_schema(self):
        with pytest.raises(OrchestrationError, match="schema_version"):
            merge_results_documents([{"schema_version": 99, "results": {}}])


class TestWriteAndLoad:
    def test_write_then_load(self, tmp_path):
        path = str(tmp_path / "RESULTS.json")
        write_results_document(results_document([small_result("a")]), path)
        document = _load(path)
        assert sorted(document["results"]) == ["a"]

    def test_written_bytes_are_the_canonical_format(self, tmp_path):
        # One writer for goldens, RESULTS.json and served bodies: indent 2,
        # sorted keys, trailing newline, no NaN.
        path = tmp_path / "RESULTS.json"
        document = results_document([small_result("b"), small_result("a")])
        write_results_document(document, str(path))
        assert path.read_bytes() == json_body(document)
        assert path.read_bytes() == (
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")
        with pytest.raises(ValueError):
            json_body({"value": float("nan")})

    def test_merge_mode_accumulates(self, tmp_path):
        path = str(tmp_path / "RESULTS.json")
        write_results_document(results_document([small_result("a")], shard="1/2"), path)
        write_results_document(
            results_document([small_result("b")], shard="2/2"), path, merge=True
        )
        document = _load(path)
        assert sorted(document["results"]) == ["a", "b"]
        assert document["run"]["shards"] == ["1/2", "2/2"]

    def test_merge_into_missing_file_writes_fresh(self, tmp_path):
        path = str(tmp_path / "RESULTS.json")
        write_results_document(results_document([small_result("a")]), path, merge=True)
        assert sorted(_load(path)["results"]) == ["a"]

    def test_merge_into_a_corrupt_file_is_an_error_and_keeps_it(self, tmp_path):
        path = tmp_path / "RESULTS.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.raises(OrchestrationError, match="cannot merge into"):
            write_results_document(
                results_document([small_result("a")]), str(path), merge=True
            )
        assert path.read_text(encoding="utf-8") == "{ not json"

    def test_write_into_a_missing_directory_is_an_error(self, tmp_path):
        path = tmp_path / "missing" / "RESULTS.json"
        with pytest.raises(OrchestrationError, match="cannot write results document"):
            write_results_document(results_document([small_result("a")]), str(path))

    def test_from_dict_rejects_non_object(self):
        for document in (None, [1, 2], "text"):
            with pytest.raises(OrchestrationError):
                ExperimentResult.from_dict(document)
