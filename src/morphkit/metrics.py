"""Error norms, timing, and report emission.

Comparisons between morphing variants use the nodal Euclidean relative
error over interior nodes; mesh health is the edge-ratio quality of
:mod:`morphkit.mesh`, which reports carry next to the error.
Reports collect one row per experiment and serialize to a fixed-schema
CSV or to JSON.
"""

from __future__ import annotations

import csv
import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .errors import ZeroReferenceError
from .mesh import _scalar, _write_artifact
from .mesh import mesh_quality  # noqa: F401 -- perfbench/tracing.py wraps metrics.mesh_quality

__all__ = [
    "relative_error",
    "time_mean",
    "ComparisonReport",
    "write_reports_csv",
    "write_reports_json",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("method", "R", "a", "b", "card_C_hat", "N_modes", "rel_error",
               "max_Q", "mean_Q", "t_assembly_s", "t_deform_s", "t_offline_s",
               "t_online_s")


def relative_error(test, reference):
    """||test - reference||_2 / ||reference||_2 over matching node ids.

    Both fields must cover the same ids in the same order (restrict one
    to the other first if needed).
    """
    if not np.array_equal(test.indices, reference.indices):
        raise ValueError("fields must cover the same node ids in the same order")
    ref = np.linalg.norm(reference.as_vector())
    if ref == 0.0:
        raise ZeroReferenceError("reference displacement is identically zero")
    return float(np.linalg.norm(test.as_vector() - reference.as_vector()) / ref)


def time_mean(fn, repeat=100):
    """Mean wall-clock seconds of ``fn()`` over ``repeat`` calls (monotonic).

    ``repeat`` goes through ``mesh._scalar``: 2.5, None or a string raises
    ValueError.
    """
    repeat = _scalar(repeat, "repeat", integral=True)
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - start) / repeat


@dataclass
class ComparisonReport:
    """One experiment row. None marks a phase that did not run."""

    method: str
    R: float | None = None
    a: float | None = None
    b: float | None = None
    card_C_hat: int | None = None
    N_modes: int | None = None
    rel_error: float | None = None
    max_Q: float | None = None
    mean_Q: float | None = None
    normalized_quality: float | None = None
    t_assembly_s: float | None = None
    t_deform_s: float | None = None
    t_offline_s: float | None = None
    t_online_s: float | None = None

    def csv_row(self):
        values = dataclasses.asdict(self)
        return ["" if values[col] is None else values[col] for col in CSV_COLUMNS]


def write_reports_csv(reports, path):
    """Fixed-schema CSV, one row per report, header first."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(report.csv_row())


def write_reports_json(reports, path):
    _write_artifact([dataclasses.asdict(r) for r in reports], path)
