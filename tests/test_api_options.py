"""Unified engine API: one registry, one set of canonical option names."""

from __future__ import annotations

import dataclasses
import re

import pytest

import repro
import repro.api as api
from repro.api import (
    PARTITIONERS,
    available_methods,
    make_partitioner,
    resolve_method,
    resolve_options,
)
from repro.engine import EngineOptions
from repro.exceptions import InvalidParameterError
from repro.serial.options import MultilevelOptions
from repro.service import PartitionRequest, PartitionService

#: The fields of the one options base, in declaration order.
ENGINE_FIELDS = ("ubfactor", "seed", "fault_plan", "fault_recovery")
#: What the Metis-target engines add to it.
MULTILEVEL_FIELDS = ENGINE_FIELDS + ("matching", "coarsen_min")

#: The whole options surface: each method's fields, base fields first.
OPTION_FIELDS = {
    "metis": MULTILEVEL_FIELDS,
    "parmetis": MULTILEVEL_FIELDS + ("num_ranks", "refine_passes"),
    "mt-metis": MULTILEVEL_FIELDS + ("num_threads", "refine_passes"),
    "gp-metis": MULTILEVEL_FIELDS + (
        "merge_strategy", "merge_impl", "gpu_threshold_factor",
        "gpu_threshold_min", "cpu_threads", "refine_passes", "sanitize",
        "fuzz_schedules", "async_streams",
    ),
    "pt-scotch": MULTILEVEL_FIELDS + ("num_ranks", "fold_threshold", "refine_passes"),
    "jostle": ENGINE_FIELDS + ("num_ranks", "matching", "broadcast_threshold"),
    "gmetis": MULTILEVEL_FIELDS + ("num_threads", "refine_passes"),
    "spectral": ENGINE_FIELDS,
    "random": ENGINE_FIELDS,
    "block": ENGINE_FIELDS,
}

#: Knobs that no caller set to a valid non-default value; their values
#: are constants now, and passing one is an unknown option.
REMOVED_FIELDS = [
    *[(m, name)
      for m in ("metis", "parmetis", "mt-metis", "gp-metis", "pt-scotch",
                "jostle", "gmetis")
      for name in ("min_shrink", "coarsen_to_factor")],
    ("metis", "gggp_trials"),
    ("metis", "fm_passes"),
    ("metis", "kway_passes"),
    ("mt-metis", "match_retry_rounds"),
    ("parmetis", "match_passes"),
    ("gp-metis", "max_gpu_threads"),
    ("pt-scotch", "match_rounds"),
    ("pt-scotch", "request_probability"),
    ("pt-scotch", "band_distance"),
    ("jostle", "refine_sweeps"),
    ("jostle", "fm_passes"),
    ("spectral", "lanczos_iterations"),
]


class TestRegistry:
    def test_every_engine_has_an_options_dataclass(self):
        for key, (cls, opts_cls) in PARTITIONERS.items():
            assert dataclasses.is_dataclass(opts_cls), key
            assert hasattr(cls, "partition"), key

    def test_common_option_fields_everywhere(self):
        # One base carries the fields Engine.partition reads.
        base = tuple(f.name for f in dataclasses.fields(EngineOptions))
        assert base == ENGINE_FIELDS
        for key, (_, opts_cls) in PARTITIONERS.items():
            assert issubclass(opts_cls, EngineOptions), key

    def test_metis_target_engines_share_the_multilevel_base(self):
        multilevel = {key for key, (_, opts_cls) in PARTITIONERS.items()
                      if issubclass(opts_cls, MultilevelOptions)}
        assert multilevel == {"metis", "parmetis", "mt-metis", "gp-metis",
                              "pt-scotch", "gmetis"}

    @pytest.mark.parametrize("method", list(OPTION_FIELDS))
    def test_field_set_pinned(self, method):
        fields = tuple(f.name for f in dataclasses.fields(PARTITIONERS[method][1]))
        assert fields == OPTION_FIELDS[method]

    def test_option_field_count(self):
        assert set(OPTION_FIELDS) == set(PARTITIONERS)
        assert sum(len(dataclasses.fields(opts_cls))
                   for _, opts_cls in PARTITIONERS.values()) == 73

    @pytest.mark.parametrize(("method", "name"), REMOVED_FIELDS)
    def test_removed_field_is_an_unknown_option(self, grid, method, name):
        assert name not in PARTITIONERS[method][1].__dataclass_fields__
        valid = re.escape("valid options: " + ", ".join(OPTION_FIELDS[method])) + "$"
        options = {name: 2}  # any value: the name itself is unknown
        with pytest.raises(InvalidParameterError, match=valid):
            repro.partition(grid, 4, method=method, **options)
        with pytest.raises(InvalidParameterError, match=valid):
            make_partitioner(method, **options)
        request = PartitionRequest(grid, 4, method=method, options=options)
        with pytest.raises(InvalidParameterError, match=valid):
            PartitionService(num_workers=1).submit(request)

    def test_common_defaults_are_uniform(self):
        for key in available_methods():
            opts = resolve_options(key)
            assert opts.ubfactor == pytest.approx(1.03), key
            assert opts.fault_plan is None, key
            assert opts.fault_recovery is True, key
            assert isinstance(opts.seed, int), key

    def test_available_methods_order(self):
        methods = available_methods()
        assert methods[:4] == ["metis", "parmetis", "mt-metis", "gp-metis"]
        assert methods[-3:] == ["spectral", "random", "block"]

    def test_method_aliases(self):
        assert resolve_method("GPMetis") == "gp-metis"
        assert resolve_method("mt_metis") == "mt-metis"
        assert resolve_method("serial") == "metis"
        with pytest.raises(InvalidParameterError, match="available:"):
            resolve_method("chaco")


class TestOptionAliases:
    @pytest.mark.parametrize(
        "spelling",
        ["ub_factor", "balance_factor", "rng_seed", "random_seed",
         "faultplan", "fault_recover"],
    )
    def test_only_canonical_names_accepted(self, spelling):
        with pytest.raises(InvalidParameterError, match="valid options: .*ubfactor"):
            resolve_options("gp-metis", **{spelling: 1})

    def test_unknown_option_lists_valid_fields(self):
        with pytest.raises(InvalidParameterError, match="valid options"):
            resolve_options("random", nparts=4)

    @pytest.mark.parametrize(
        "method",
        [key for key, (_, opts_cls) in PARTITIONERS.items()
         if "matching" in opts_cls.__dataclass_fields__],
    )
    def test_unknown_matching_scheme_rejected(self, method):
        # Every engine with a matching option checks it when built, not
        # at its first coarsening level.
        for scheme in ("hem", "lem", "rm"):
            assert resolve_options(method, matching=scheme).matching == scheme
        with pytest.raises(InvalidParameterError, match="unknown matching scheme"):
            resolve_options(method, matching="HEM")


class TestDeprecatedSurface:
    def test_other_attributes_still_raise(self):
        with pytest.raises(AttributeError):
            api.NOT_A_THING


class TestFacade:
    def test_partition_accepts_normalized_names_everywhere(self, grid):
        # The same kwargs drive engines from every family.
        for method in ("metis", "gp-metis", "spectral", "random"):
            result = repro_partition(grid, method)
            assert result.k == 4

    def test_partition_rejects_unknown_options(self, grid):
        import repro

        with pytest.raises(InvalidParameterError):
            repro.partition(grid, 4, method="metis", bogus=1)


def repro_partition(graph, method):
    import repro

    return repro.partition(graph, 4, method=method, ubfactor=1.05, seed=2)
