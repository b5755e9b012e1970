"""Engine-level degradation tests: every rung of the recovery ladder.

Each test injects a specific fault into a real engine run and asserts
the run still produces a valid partition, that the injector timeline
records the expected recovery action, and that the ``degraded`` flag
tells the truth about whether the result came from the nominal path.

The GP-metis cases use ``grid2d(100, 100)`` (10k vertices — comfortably
above the default GPU stop size of 4096, so the run has real GPU
coarsening levels, kernels and transfers to break).
"""

import numpy as np
import pytest

from repro import api
from repro.exceptions import ReproError, TransferError
from repro.faults import FaultPlan, FaultSpec
from repro.graphs import generators
from repro.graphs.metrics import edge_cut, imbalance
from repro.obs.ledger import ledger_record

K = 4
SEED = 3
UBFACTOR = 1.05


@pytest.fixture(scope="module")
def grid():
    return generators.grid2d(100, 100)


def run(grid, plan, **opts):
    return api.partition(grid, K, method="gp-metis", seed=SEED,
                         ubfactor=UBFACTOR, fault_plan=plan, **opts)


def assert_valid(grid, result):
    part = result.part
    assert part.shape == (grid.num_vertices,)
    assert set(np.unique(part)) == set(range(K))
    assert imbalance(grid, part, K) <= UBFACTOR + 1e-9


def actions(result):
    # Recovery events carry the action name in their ``kind`` field.
    return [e.kind for e in result.extras["fault_events"]
            if e.category == "recovery"]


class TestGPMetisLadder:
    def test_clean_run_is_not_degraded(self, grid):
        result = run(grid, None)
        assert_valid(grid, result)
        assert result.extras["degraded"] is False
        assert "fault_events" not in result.extras

    def test_empty_plan_attaches_nothing(self, grid):
        clean = run(grid, None)
        noop = run(grid, FaultPlan())
        assert np.array_equal(clean.part, noop.part)

    def test_transient_transfer_fault_retried(self, grid):
        plan = FaultPlan(specs=(
            FaultSpec("transfer.h2d", "fail", max_fires=1),
        ))
        result = run(grid, plan)
        assert_valid(grid, result)
        assert "retry" in actions(result)

    def test_alloc_oom_falls_back_to_cpu(self, grid):
        # Retrying cannot help an out-of-memory device, so the ladder
        # goes straight to the mt-metis CPU path.
        plan = FaultPlan(specs=(FaultSpec("gpu.alloc", "oom", max_fires=1),))
        result = run(grid, plan)
        assert_valid(grid, result)
        assert result.extras["degraded"] is True
        assert "cpu-fallback" in actions(result)

    def test_kernel_abort_degrades_to_gpu_shrink(self, grid):
        plan = FaultPlan(specs=(
            FaultSpec("kernel.launch", "abort", match="contract", max_fires=1),
        ))
        result = run(grid, plan)
        assert_valid(grid, result)
        assert result.extras["degraded"] is True
        assert "gpu-shrink" in actions(result)

    def test_gpu_shrink_after_completed_levels(self, grid):
        # Plan seed 7 with p=0.5 on coarsen.match: spec stream 0 draws
        # 0.827 then 0.321, so level 0 survives and level 1 aborts —
        # exercising the host projection of the levels the GPU finished.
        plan = FaultPlan(seed=7, specs=(
            FaultSpec("kernel.launch", "abort", probability=0.5,
                      match="coarsen.match", max_fires=1),
        ))
        result = run(grid, plan)
        assert_valid(grid, result)
        assert result.extras["degraded"] is True
        assert "gpu-shrink" in actions(result)

    def test_capacity_squeeze_forces_cpu_fallback(self, grid):
        plan = FaultPlan(specs=(
            FaultSpec("gpu.capacity", "squeeze", factor=0.00001),
        ))
        result = run(grid, plan)
        assert_valid(grid, result)
        assert result.extras["degraded"] is True
        assert "cpu-fallback" in actions(result)

    def test_persistent_h2d_failure_skips_gpu_refinement(self, grid):
        plan = FaultPlan(specs=(
            FaultSpec("transfer.h2d", "fail", match="part", max_fires=0),
        ))
        result = run(grid, plan)
        assert_valid(grid, result)
        assert result.extras["degraded"] is True
        assert "skip-gpu-refine" in actions(result)

    def test_projection_abort_finishes_on_host(self, grid):
        plan = FaultPlan(specs=(
            FaultSpec("kernel.launch", "abort", match="project", max_fires=1),
        ))
        result = run(grid, plan)
        assert_valid(grid, result)
        assert result.extras["degraded"] is True

    def test_final_d2h_failure_evacuates_without_degrading(self, grid):
        plan = FaultPlan(specs=(
            FaultSpec("transfer.d2h", "fail", match="part.final", max_fires=0),
        ))
        result = run(grid, plan)
        clean = run(grid, None)
        assert_valid(grid, result)
        assert "evacuate" in actions(result)
        # Reading the device buffer in place loses no quality: the
        # partition is bit-identical to the fault-free run.
        assert np.array_equal(result.part, clean.part)
        assert result.extras["degraded"] is False

    def test_full_plan_survives(self, grid):
        result = run(grid, FaultPlan.full(7))
        assert_valid(grid, result)
        assert result.extras["degraded"] is True
        assert result.extras["fault_events"]
        # The ledger record carries the same evidence.
        record = ledger_record(result.profiler)
        counters = record["metrics"]["counters"]
        assert any(key.startswith("faults.injected") for key in counters)
        assert any(key.startswith("faults.recovered") for key in counters)
        assert record["run"]["degraded"] is True

    def test_recovery_off_raises_injected(self, grid):
        plan = FaultPlan(specs=(
            FaultSpec("transfer.h2d", "fail", max_fires=0),
        ))
        with pytest.raises(TransferError) as err:
            run(grid, plan, fault_recovery=False)
        assert err.value.injected

    def test_faulted_run_is_deterministic(self, grid):
        plan = FaultPlan.full(11)
        a, b = run(grid, plan), run(grid, plan)
        assert np.array_equal(a.part, b.part)
        assert [(e.site, e.kind, e.category) for e in a.extras["fault_events"]] \
            == [(e.site, e.kind, e.category) for e in b.extras["fault_events"]]


class TestOtherEngines:
    def test_mtmetis_deadlock_work_steal(self, grid):
        plan = FaultPlan(specs=(
            FaultSpec("thread.stall", "deadlock", max_fires=1),
        ))
        result = api.partition(grid, K, method="mt-metis", seed=SEED,
                               ubfactor=UBFACTOR, fault_plan=plan)
        assert_valid(grid, result)
        assert result.extras["degraded"] is True
        assert "work-steal" in actions(result)

    def test_parmetis_message_faults_masked(self, grid):
        plan = FaultPlan(specs=(
            FaultSpec("mpi.message", "drop", probability=0.2, max_fires=0),
            FaultSpec("mpi.message", "duplicate", probability=0.2, max_fires=0),
        ))
        result = api.partition(grid, K, method="parmetis", seed=SEED,
                               ubfactor=UBFACTOR, fault_plan=plan)
        clean = api.partition(grid, K, method="parmetis", seed=SEED,
                              ubfactor=UBFACTOR)
        assert_valid(grid, result)
        # Retransmission and dedup fully mask message faults: same answer,
        # no degradation — only modeled time differs.
        assert np.array_equal(result.part, clean.part)
        assert result.extras["degraded"] is False
        acts = set(actions(result))
        assert acts & {"retransmit", "dedup"}
        assert result.modeled_seconds > clean.modeled_seconds

    def test_gmetis_stall_charges_time_only(self, grid):
        plan = FaultPlan(specs=(
            FaultSpec("thread.stall", "stall", probability=0.3, max_fires=2),
        ))
        result = api.partition(grid, K, method="gmetis", seed=SEED,
                               ubfactor=UBFACTOR, fault_plan=plan)
        clean = api.partition(grid, K, method="gmetis", seed=SEED,
                              ubfactor=UBFACTOR)
        assert_valid(grid, result)
        assert result.extras["degraded"] is False
        assert np.array_equal(result.part, clean.part)
        assert result.modeled_seconds > clean.modeled_seconds

    def test_serial_has_no_faultable_substrate(self, grid):
        result = api.partition(grid, K, method="metis", seed=SEED,
                               ubfactor=UBFACTOR, fault_plan=FaultPlan.full(5))
        assert_valid(grid, result)
        assert result.extras["degraded"] is False
        assert result.extras.get("fault_events", []) == []
