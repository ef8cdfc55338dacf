"""Error norm, timing helper, and report serialization."""

import csv
import json

import numpy as np
import pytest

from morphkit import (ComparisonReport, CSV_COLUMNS, DisplacementField,
                      ZeroReferenceError, relative_error, time_mean,
                      write_reports_csv, write_reports_json)

GOLDEN_HEADER = ("method,R,a,b,card_C_hat,N_modes,rel_error,max_Q,mean_Q,"
                 "t_assembly_s,t_deform_s,t_offline_s,t_online_s")


def test_relative_error_hand_case():
    # ||(0.1, 0)|| / ||(3, 4)|| = 0.02
    ref = DisplacementField([0, 1], [[3.0, 0.0], [0.0, 4.0]])
    test = DisplacementField([0, 1], [[3.1, 0.0], [0.0, 4.0]])
    assert relative_error(test, ref) == pytest.approx(0.02)


def test_relative_error_zero_for_identical():
    ref = DisplacementField([5], [[1.0, 2.0, 3.0]])
    assert relative_error(ref, ref) == 0.0


def test_relative_error_id_mismatch():
    a = DisplacementField([0], [[1.0, 0.0]])
    b = DisplacementField([1], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        relative_error(a, b)


def test_relative_error_zero_reference():
    zero = DisplacementField.zero([0, 1], 2)
    test = DisplacementField([0, 1], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroReferenceError):
        relative_error(test, zero)


def test_time_mean_counts_calls():
    calls = []
    mean = time_mean(lambda: calls.append(1), repeat=7)
    assert len(calls) == 7
    assert mean >= 0.0
    with pytest.raises(ValueError, match="repeat must be at least 1"):
        time_mean(lambda: None, repeat=0)
    for bad in (2.5, None, "3"):
        with pytest.raises(ValueError, match=f"repeat must be an integer, "
                                             f"got {bad!r}"):
            time_mean(lambda: None, repeat=bad)


def test_csv_schema_is_frozen():
    assert ",".join(CSV_COLUMNS) == GOLDEN_HEADER


def test_csv_row_maps_none_to_empty():
    row = ComparisonReport(method="sidw", R=0.5, card_C_hat=10).csv_row()
    assert row[0] == "sidw"
    assert row[1] == 0.5
    assert row[2] == ""  # a was never set
    assert len(row) == len(CSV_COLUMNS)


def test_write_reports_csv(tmp_path):
    reports = [ComparisonReport(method="idw", rel_error=0.0, max_Q=1.5),
               ComparisonReport(method="sidw", R=0.3, rel_error=0.04)]
    path = tmp_path / "report.csv"
    write_reports_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == GOLDEN_HEADER
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["method"] == "idw"
    assert float(rows[1]["rel_error"]) == 0.04
    assert rows[1]["t_online_s"] == ""


def test_write_reports_json(tmp_path):
    reports = [ComparisonReport(method="pod-esidw", N_modes=2,
                                normalized_quality=1.1)]
    path = tmp_path / "report.json"
    write_reports_json(reports, path)
    doc = json.loads(path.read_text())
    assert doc[0]["method"] == "pod-esidw"
    assert doc[0]["N_modes"] == 2
    # the JSON view carries the extra index the CSV schema leaves out
    assert doc[0]["normalized_quality"] == 1.1
