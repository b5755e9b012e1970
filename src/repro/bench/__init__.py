"""Benchmark harness: experiment runner, table/figure renderers, calibration."""

from .calibrate import CALIBRATION_NOTES, ShapeCheck, check_paper_shape
from .figures import fig5_csv, fig5_series, render_fig5
from .report import (
    BENCH_RESULTS_SCHEMA,
    markdown_report,
    results_json,
    write_report,
    write_results_json,
)
from .scaling import ScalingPoint, ScalingStudy, render_scaling, run_scaling_study
from .harness import (
    DEFAULT_METHODS,
    DEFAULT_SCALES,
    ExperimentConfig,
    ExperimentResults,
    MethodRun,
    run_experiment,
    run_method_on_graph,
)
from .tables import (
    render_table1,
    render_table2,
    render_table3,
    table1_rows,
    table2_rows,
    table3_rows,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResults",
    "MethodRun",
    "run_experiment",
    "run_method_on_graph",
    "DEFAULT_SCALES",
    "DEFAULT_METHODS",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "render_table1",
    "render_table2",
    "render_table3",
    "fig5_series",
    "render_fig5",
    "fig5_csv",
    "CALIBRATION_NOTES",
    "ShapeCheck",
    "check_paper_shape",
    "BENCH_RESULTS_SCHEMA",
    "markdown_report",
    "results_json",
    "write_results_json",
    "write_report",
    "ScalingPoint",
    "ScalingStudy",
    "run_scaling_study",
    "render_scaling",
]
