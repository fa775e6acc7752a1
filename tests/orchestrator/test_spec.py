"""Tests for spec registration, filtering and shard selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.core.exceptions import OrchestrationError
from repro.experiments.orchestrator import (
    execute_spec,
    filter_specs,
    parse_shard,
    select_shard,
)
from repro.experiments.orchestrator import registry
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
        spec = ExperimentSpec(
            experiment_id="toy",
            title="toy",
            build=lambda params: None,
            render=lambda result: "",
            params_type=_TupleParams,
        )
        for params in (
            _TupleParams(),
            _TupleParams(sizes=(4, 5)),
            _TupleParams(grid=(), label="y"),
        ):
            rebuilt = spec.params_from_dict(spec.params_dict(params))
            assert rebuilt == params
            hash(rebuilt)
        with pytest.raises(OrchestrationError, match="bad parameters for toy"):
            spec.params_from_dict({"unknown": [1]})


class TestFiltering:
    def test_no_filters_selects_everything(self):
        specs = registry.all_specs()
        assert filter_specs(specs) == list(specs)

    def test_name_filter_preserves_registry_order(self):
        specs = registry.all_specs()
        selected = filter_specs(specs, names=("proposition2", "figure1"))
        assert [spec.experiment_id for spec in selected] == ["figure1", "proposition2"]

    def test_unknown_name_raises(self):
        with pytest.raises(OrchestrationError, match="unknown experiments: nope"):
            filter_specs(registry.all_specs(), names=("nope",))

    def test_tag_filter(self):
        selected = filter_specs(registry.all_specs(), tags=("proposition",))
        assert [spec.experiment_id for spec in selected] == [
            "proposition1",
            "proposition2",
            "proposition3",
        ]

    def test_multiple_tags_are_a_union(self):
        selected = filter_specs(registry.all_specs(), tags=("figure", "example"))
        assert [spec.experiment_id for spec in selected] == ["figure1", "example1"]

    def test_unknown_tag_raises(self):
        with pytest.raises(OrchestrationError, match="unknown tags"):
            filter_specs(registry.all_specs(), tags=("no-such-tag",))

    def test_names_and_tags_compose(self):
        selected = filter_specs(
            registry.all_specs(),
            names=("figure1", "proposition1"),
            tags=("proposition",),
        )
        assert [spec.experiment_id for spec in selected] == ["proposition1"]

    def test_empty_intersection_of_valid_filters_raises(self):
        # figure1 is a valid name and monte-carlo a valid tag, but nothing
        # carries both — a silent empty selection would look like success.
        with pytest.raises(OrchestrationError, match="no experiment matches"):
            filter_specs(registry.all_specs(), names=("figure1",), tags=("monte-carlo",))


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
