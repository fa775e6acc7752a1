"""Tests for spec registration, params decoding and shard selection."""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import pytest

from repro.core.exceptions import OrchestrationError
from repro.experiments.orchestrator import (
    execute_spec,
    parse_shard,
    select_shard,
)
from repro.experiments.orchestrator import registry
from repro.experiments.orchestrator.engine import _pool_execute
from repro.experiments.orchestrator.spec import ExperimentSpec, variadic_tuple_element


@dataclass(frozen=True)
class _TupleParams:
    grid: Tuple[Tuple[float, ...], ...] = ((1.0,), (2.0, 3.0))
    sizes: Optional[Tuple[int, ...]] = None
    label: str = "x"


class TestRegistry:
    def test_seventeen_experiments_in_paper_order(self):
        ids = registry.experiment_ids()
        assert len(ids) == 17
        assert ids[:5] == [
            "figure1",
            "example1",
            "proposition1",
            "proposition2",
            "proposition3",
        ]
        # The campaign-engine sweeps (PR 5) plus the sparse ecosystem-scale
        # sweep (PR 9) close the registry.
        assert ids[-4:] == [
            "campaign_budget",
            "campaign_reliability",
            "campaign_churn",
            "ecosystem_scale",
        ]

    def test_get_spec_unknown_raises(self):
        with pytest.raises(OrchestrationError, match="unknown experiment"):
            registry.get_spec("does-not-exist")

    def test_every_spec_is_complete(self):
        for spec in registry.all_specs():
            assert spec.title
            assert spec.tags
            assert callable(spec.build)
            assert callable(spec.render)

    def test_default_builds_record_their_default_seed(self):
        for experiment_id, seed in (
            ("safety_violation", 7),
            ("two_class", 23),
            ("figure1", None),
            ("campaign_budget", 11),
        ):
            assert execute_spec(registry.get_spec(experiment_id)).seed == seed

    def test_a_build_records_the_seed_it_ran_with(self):
        spec = registry.get_spec("campaign_budget")
        result = execute_spec(spec, spec.params_type(seed=5000))
        assert result.seed == 5000
        assert result.canonical_dict()["seed"] == 5000

    def test_params_round_trip(self):
        for spec in registry.all_specs():
            document = spec.params_dict()
            rebuilt = spec.params_from_dict(document)
            assert spec.params_dict(rebuilt) == document

    @pytest.mark.parametrize("spec", registry.all_specs(), ids=lambda spec: spec.experiment_id)
    def test_params_from_dict_rebuilds_equal_hashable_params(self, spec):
        # JSON turns Tuple[T, ...] params into arrays; the rebuilt params
        # must be the original dataclass value again (tuples, hashable), as
        # every pool-worker build receives them.
        params = spec.default_params()
        rebuilt = spec.params_from_dict(spec.params_dict(params))
        assert rebuilt == params
        assert hash(rebuilt) == hash(params)

    def test_variadic_tuple_rule(self):
        assert variadic_tuple_element(Tuple[int, ...]) is int
        assert variadic_tuple_element(Tuple[Tuple[float, ...], ...]) == Tuple[float, ...]
        for annotation in (Tuple[int, float], Tuple[()], int, list, Optional[Tuple[int, ...]]):
            assert variadic_tuple_element(annotation) is None

    def test_params_from_dict_rebuilds_nested_and_optional_tuples(self):
        spec = _toy_spec()
        for params in (
            _TupleParams(),
            _TupleParams(sizes=(4, 5)),
            _TupleParams(grid=(), label="y"),
        ):
            rebuilt = spec.params_from_dict(spec.params_dict(params))
            assert rebuilt == params
            hash(rebuilt)
        with pytest.raises(
            OrchestrationError,
            match=r"unknown parameter\(s\) for 'toy': unknown \(known: grid, label, sizes\)",
        ):
            spec.params_from_dict({"unknown": [1]})


def _toy_spec():
    return ExperimentSpec(
        experiment_id="toy",
        title="toy",
        build=lambda params: None,
        render=lambda result: "",
        params_type=_TupleParams,
    )


class TestParamsDecoder:
    """``params_from_dict`` is the one JSON-to-params decoder of every seam."""

    @pytest.mark.parametrize("document", [None, [], "grid", 3])
    def test_a_document_that_is_not_an_object_is_rejected(self, document):
        with pytest.raises(OrchestrationError, match="params for 'toy' must be an object"):
            _toy_spec().params_from_dict(document)

    def test_every_unknown_field_is_listed(self):
        with pytest.raises(OrchestrationError, match=r"for 'toy': backend, zeta \(known"):
            _toy_spec().params_from_dict({"zeta": 1, "label": "y", "backend": "python"})

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"label": 3}, "parameter 'label' must be a string, got 3"),
            ({"sizes": [4, True]}, "parameter 'sizes' must be an integer, got True"),
            ({"sizes": [4.0]}, "parameter 'sizes' must be an integer, got 4.0"),
            ({"sizes": "4,5"}, "parameter 'sizes' must be an array, got '4,5'"),
            ({"grid": [[1.0], 2.0]}, "parameter 'grid' must be an array, got 2.0"),
            ({"grid": [[float("nan")]]}, "parameter 'grid' must be finite, got nan"),
            ({"grid": [[10**400]]}, "parameter 'grid' must be finite"),
            ({"grid": [["1.0"]]}, "parameter 'grid' must be a number, got '1.0'"),
        ],
    )
    def test_each_value_is_checked_against_its_fields_type(self, document, message):
        with pytest.raises(OrchestrationError, match=re.escape(message)):
            _toy_spec().params_from_dict(document)

    def test_json_ints_widen_to_floats_and_null_fills_an_optional(self):
        params = _toy_spec().params_from_dict({"grid": [[1, 2.5]], "sizes": None})
        assert params == _TupleParams(grid=((1.0, 2.5),), sizes=None)
        assert type(params.grid[0][0]) is float


#: A JSON value each scalar field type rejects, with the type its message names.
_WRONG_SCALAR = {
    bool: (1, "a boolean"),
    int: ("1", "an integer"),
    float: ("0.5", "a number"),
    str: (1, "a string"),
}


def _registered_params_fields():
    return [
        pytest.param(spec, spec_field.name, id=f"{spec.experiment_id}-{spec_field.name}")
        for spec in registry.all_specs()
        for spec_field in fields(spec.params_type)
    ]


class TestRegisteredParamsFields:
    """Every field of every registered experiment decodes through the checks."""

    @pytest.mark.parametrize("spec, name", _registered_params_fields())
    def test_a_value_of_the_wrong_json_type_is_rejected_by_name(self, spec, name):
        annotation = spec.params_hints[name]
        element = variadic_tuple_element(annotation)
        if element is None:
            value, kind = _WRONG_SCALAR[annotation]
        else:
            value, kind = "1,2", "an array"
            wrong_element, element_kind = _WRONG_SCALAR[element]
            with pytest.raises(
                OrchestrationError,
                match=re.escape(
                    f"parameter {name!r} must be {element_kind}, got {wrong_element!r}"
                ),
            ):
                spec.params_from_dict({name: [wrong_element]})
        with pytest.raises(
            OrchestrationError,
            match=re.escape(f"parameter {name!r} must be {kind}, got {value!r}"),
        ):
            spec.params_from_dict({name: value})


class TestPoolSeamDecodes:
    """The pool worker entry point validates the params it is handed."""

    @pytest.mark.parametrize(
        "experiment_id, params_doc, message",
        [
            ("figure1", {"step": True}, "parameter 'step' must be an integer, got True"),
            (
                "safety_violation",
                {"trials": 2000.0},
                "parameter 'trials' must be an integer, got 2000.0",
            ),
            ("figure1", {"backend": "python"}, "unknown parameter(s) for 'figure1': backend"),
        ],
    )
    def test_mistyped_or_unknown_params_are_rejected_by_name(
        self, experiment_id, params_doc, message
    ):
        with pytest.raises(OrchestrationError, match=re.escape(message)):
            _pool_execute(experiment_id, params_doc, None)


class TestShardParsing:
    def test_parse_valid(self):
        assert parse_shard("1/2") == (1, 2)
        assert parse_shard(" 3/7 ") == (3, 7)

    @pytest.mark.parametrize("bad", ["", "1", "0/2", "3/2", "1/0", "a/b", "1/2/3", "-1/2"])
    def test_parse_invalid(self, bad):
        with pytest.raises(OrchestrationError):
            parse_shard(bad)


class TestShardSelection:
    def test_round_robin_assignment(self):
        specs = registry.all_specs()
        first = select_shard(specs, 1, 2)
        second = select_shard(specs, 2, 2)
        assert [spec.experiment_id for spec in first] == [
            spec.experiment_id for spec in specs[0::2]
        ]
        assert [spec.experiment_id for spec in second] == [
            spec.experiment_id for spec in specs[1::2]
        ]

    def test_single_shard_is_everything(self):
        specs = registry.all_specs()
        assert select_shard(specs, 1, 1) == list(specs)

    def test_more_shards_than_specs_yields_empty_shards(self):
        specs = registry.all_specs()[:2]
        assert select_shard(specs, 3, 5) == []

    def test_invalid_bounds_raise(self):
        with pytest.raises(OrchestrationError):
            select_shard(registry.all_specs(), 0, 2)
        with pytest.raises(OrchestrationError):
            select_shard(registry.all_specs(), 3, 2)
