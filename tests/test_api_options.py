"""Unified engine API: one registry, one set of canonical option names."""

from __future__ import annotations

import dataclasses

import pytest

import repro.api as api
from repro.api import (
    PARTITIONERS,
    available_methods,
    resolve_method,
    resolve_options,
)
from repro.exceptions import InvalidParameterError

#: Every engine's options dataclass carries this cross-engine core.
COMMON_FIELDS = {"ubfactor", "seed", "fault_plan", "fault_recovery"}


class TestRegistry:
    def test_every_engine_has_an_options_dataclass(self):
        for key, (cls, opts_cls) in PARTITIONERS.items():
            assert dataclasses.is_dataclass(opts_cls), key
            assert hasattr(cls, "partition"), key

    def test_common_option_fields_everywhere(self):
        for key, (_, opts_cls) in PARTITIONERS.items():
            fields = set(opts_cls.__dataclass_fields__)
            missing = COMMON_FIELDS - fields
            assert not missing, f"{key} options missing {sorted(missing)}"

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
