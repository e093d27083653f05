"""Experiment harness reproducing the evaluation of §6 (Figs. 2–6)."""

from .config import apply_setting, load_spec, spec_from_dict
from .figures import FIGURES, get_figure_spec
from .reportcard import build_report, load_result_doc, result_doc_markdown
from .robustness import RobustnessResult, robustness_table, run_robustness
from .report import (
    lateness_table,
    render_report,
    result_chart,
    result_markdown,
    result_table,
    save_csv,
    save_json,
)
from .context import TrialContext
from .runner import (
    CellResult,
    ExperimentResult,
    cell_chunk_key,
    run_experiment,
    run_paired_cells,
    run_trial,
)
from .spec import ExperimentSpec, TrialConfig, TrialOutcome
from .sweep2d import Sweep2DResult, heatmap, run_sweep2d

__all__ = [
    "TrialConfig",
    "TrialOutcome",
    "ExperimentSpec",
    "run_trial",
    "run_paired_cells",
    "run_experiment",
    "cell_chunk_key",
    "TrialContext",
    "CellResult",
    "ExperimentResult",
    "FIGURES",
    "get_figure_spec",
    "result_table",
    "result_markdown",
    "result_chart",
    "lateness_table",
    "render_report",
    "save_json",
    "save_csv",
    "run_sweep2d",
    "Sweep2DResult",
    "heatmap",
    "spec_from_dict",
    "load_spec",
    "apply_setting",
    "run_robustness",
    "RobustnessResult",
    "robustness_table",
    "build_report",
    "load_result_doc",
    "result_doc_markdown",
]
