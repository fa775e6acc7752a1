"""Tests for the one selection decoder, ``registry.decode_selection``.

A selection is the part of a request that names which results it wants;
``repro.cli run``, ``POST /jobs`` and ``GET|POST /results`` all decode it
here.  ``tests/integration/test_selection_routes.py`` checks that the four
interfaces agree.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import OrchestrationError
from repro.experiments.orchestrator import registry
from repro.experiments.orchestrator.registry import MAX_JOB_TASKS, decode_selection


def _ids(requests):
    return [experiment_id for experiment_id, _ in requests]


class TestSelection:
    def test_no_selection_is_every_experiment_in_registry_order(self):
        assert decode_selection({}) == [(name, {}) for name in registry.experiment_ids()]

    def test_ids_keep_the_given_order(self):
        requests = decode_selection({"experiments": ["proposition2", "figure1"]})
        assert requests == [("proposition2", {}), ("figure1", {})]

    def test_a_repeated_id_stays_a_separate_request(self):
        requests = decode_selection({"experiments": ["example1", "figure1", "example1"]})
        assert _ids(requests) == ["example1", "figure1", "example1"]

    def test_ids_are_checked_per_request(self):
        # Whether an id is registered is the caller's check (HTTP answers
        # 404 for it, the shell exits 2), not a shape error of the selection.
        assert decode_selection({"experiments": ["nope"]}) == [("nope", {})]

    def test_entries_carry_their_params(self):
        requests = decode_selection(
            {"experiments": ["example1", {"experiment": "figure1", "params": {"step": 2}}]}
        )
        assert requests == [("example1", {}), ("figure1", {"step": 2})]

    def test_tag_selects_in_registry_order(self):
        assert _ids(decode_selection({"tag": "proposition"})) == [
            "proposition1",
            "proposition2",
            "proposition3",
        ]

    def test_tag_list_is_a_union(self):
        # Registry order, whatever order the tags are given in.
        assert _ids(decode_selection({"tag": ["figure", "example"]})) == ["figure1", "example1"]
        assert _ids(decode_selection({"tag": ["example", "figure"]})) == ["figure1", "example1"]

    def test_unknown_tag_raises(self):
        with pytest.raises(OrchestrationError, match="unknown tags: no-such-tag"):
            decode_selection({"tag": ["proposition", "no-such-tag"]})

    def test_ids_with_tags_is_an_error(self):
        with pytest.raises(OrchestrationError, match="'experiments' cannot be combined with 'tag'"):
            decode_selection({"experiments": ["figure1", "proposition1"], "tag": "proposition"})

    def test_one_experiment_with_params(self):
        assert decode_selection({"experiment": "figure1", "params": {"step": 2}}) == [
            ("figure1", {"step": 2})
        ]

    def test_grid_expands_axes_in_name_order_over_the_fixed_params(self):
        requests = decode_selection(
            {
                "experiment": "two_class",
                "params": {"seed": 3},
                "grid": {"vulnerability_probability": [0.1, 0.2], "trials": [10, 20]},
            }
        )
        assert requests == [
            ("two_class", {"seed": 3, "trials": 10, "vulnerability_probability": 0.1}),
            ("two_class", {"seed": 3, "trials": 10, "vulnerability_probability": 0.2}),
            ("two_class", {"seed": 3, "trials": 20, "vulnerability_probability": 0.1}),
            ("two_class", {"seed": 3, "trials": 20, "vulnerability_probability": 0.2}),
        ]

    @pytest.mark.parametrize(
        "document",
        [
            {"experiments": ["example1"] * MAX_JOB_TASKS},
            {"experiment": "figure1", "grid": {"step": list(range(16)), "max_residual_miners": list(range(16))}},
        ],
    )
    def test_the_cap_is_inclusive(self, document):
        assert len(decode_selection(document)) == MAX_JOB_TASKS

    @pytest.mark.parametrize(
        "document, message",
        [
            (
                {"experiments": ["example1"] * (MAX_JOB_TASKS + 1)},
                f"'experiments' names {MAX_JOB_TASKS + 1} requests",
            ),
            # 17 x 16 points: past the cap although each axis is short.
            (
                {
                    "experiment": "figure1",
                    "grid": {"step": list(range(17)), "max_residual_miners": list(range(16))},
                },
                "'grid' names 272 requests",
            ),
        ],
    )
    def test_over_the_cap_raises_naming_the_field(self, document, message):
        with pytest.raises(OrchestrationError) as error:
            decode_selection(document)
        assert message in str(error.value)

    @pytest.mark.parametrize(
        "document, fragment",
        [
            ({"backend": "python"}, "unknown selection field(s): backend"),
            ({"experiment": "figure1", "tag": "figure"}, "'experiment' cannot be combined with 'tag'"),
            ({"experiment": "figure1", "experiments": ["figure1"]}, "'experiment' cannot be combined"),
            ({"params": {"step": 2}}, "'params' applies only to a single 'experiment'"),
            ({"experiments": ["figure1"], "grid": {"step": [1]}}, "'grid' applies only"),
            ({"tag": "figure", "params": {}}, "'params' applies only"),
            ({"experiment": 7}, "'experiment' must be an experiment id string"),
            ({"experiment": "figure1", "params": [1]}, "'params' must be an object"),
            ({"experiment": "figure1", "grid": {}}, "'grid' must be a non-empty object"),
            ({"experiment": "figure1", "grid": [1]}, "'grid' must be a non-empty object"),
            ({"experiment": "figure1", "grid": {"step": 1}}, "grid axis 'step'"),
            ({"experiment": "figure1", "grid": {"step": []}}, "grid axis 'step'"),
            (
                {"experiment": "figure1", "params": {"step": 1}, "grid": {"step": [1, 2]}},
                "overlap: step",
            ),
            ({"experiments": []}, "'experiments' must be a list"),
            ({"experiments": "figure1"}, "'experiments' must be a list"),
            ({"experiments": [7]}, "experiments[0] must be an experiment id or an object"),
            ({"experiments": ["figure1", {"id": "x"}]}, "experiments[1] has unknown field(s): id"),
            ({"experiments": [{"params": {}}]}, "experiments[0] needs an 'experiment' string"),
            ({"experiments": [{"experiment": "figure1", "params": 3}]}, "experiments[0].params must be an object"),
            ({"tag": []}, "'tag' must be a tag name or a non-empty list"),
            ({"tag": 3}, "'tag' must be a tag name"),
            ({"tag": ["figure", 3]}, "'tag' must be a tag name"),
        ],
    )
    def test_malformed_selections_raise_naming_the_field(self, document, fragment):
        with pytest.raises(OrchestrationError) as error:
            decode_selection(document)
        assert fragment in str(error.value)
