"""Report files: the exact bytes written, and what reads back from them."""

import math
from dataclasses import fields
from typing import get_type_hints

import pytest

from skewinfo import TrialRecord, UsageError, VerificationReport, read_records, write_report

RECORDS = [
    TrialRecord(0, (42, 0), (3, 2), "claim1", 0.12345678901234568, 0.5, 0.5 - 0.12345678901234568, False, 0.0),
    TrialRecord(1, (42, 1), (2, 2), "claim2", 0.75, 1.0 / 3.0, 1.0 / 3.0 - 0.75, True, 1.25),
    TrialRecord(2, (42, 2), (3, 3), "avg", math.nan, math.nan, math.nan, False, 0.0),
    TrialRecord(3, (2**63, 3), (2, 2), "claim1", 1.0, 2.0, 1.0, False, 1e-300),
]
REPORT = VerificationReport(
    claim_id="claim2",
    trials=4,
    violations=1,
    failed=1,
    min_margin=1.0 / 3.0 - 0.75,
    config={"n_a": 3, "n_b": 2, "mode": "argmin_K", "violation_tol": 1e-7, "master_seed": 2**63},
    failures=[(2, "NotPSD: minimum eigenvalue -0.1")],
    monotonicity_violations=1,
)

GOLDEN_JSONL = (
    '{"trial_index": 0, "seed_tuple": [42, 0], "dims": [3, 2], "claim_id": "claim1", '
    '"lhs": 0.12345678901234568, "rhs": 0.5, "margin": 0.37654321098765431, '
    '"violated": false, "wall_time_ms": 0}\n'
    '{"trial_index": 1, "seed_tuple": [42, 1], "dims": [2, 2], "claim_id": "claim2", '
    '"lhs": 0.75, "rhs": 0.33333333333333331, "margin": -0.41666666666666669, '
    '"violated": true, "wall_time_ms": 1.25}\n'
    '{"trial_index": 2, "seed_tuple": [42, 2], "dims": [3, 3], "claim_id": "avg", '
    '"lhs": null, "rhs": null, "margin": null, "violated": false, "wall_time_ms": 0}\n'
    '{"trial_index": 3, "seed_tuple": [9223372036854775808, 3], "dims": [2, 2], "claim_id": "claim1", '
    '"lhs": 1, "rhs": 2, "margin": 1, "violated": false, "wall_time_ms": 1e-300}\n'
)
GOLDEN_CSV = (
    "trial_index,seed_tuple,dims,claim_id,lhs,rhs,margin,violated,wall_time_ms\n"
    "0,42:0,3:2,claim1,0.12345678901234568,0.5,0.37654321098765431,false,0\n"
    "1,42:1,2:2,claim2,0.75,0.33333333333333331,-0.41666666666666669,true,1.25\n"
    "2,42:2,3:3,avg,nan,nan,nan,false,0\n"
    "3,9223372036854775808:3,2:2,claim1,1,2,1,false,1e-300\n"
)
GOLDEN_SUMMARY = (
    "claim_id=claim2\n"
    "trials=4\n"
    "violations=1\n"
    "failed=1\n"
    "min_margin=-0.41666666666666669\n"
    "monotonicity_violations=1\n"
    "config.n_a=3\n"
    "config.n_b=2\n"
    "config.mode=argmin_K\n"
    "config.violation_tol=1e-07\n"
    "config.master_seed=9223372036854775808\n"
    "failures=2:NotPSD: minimum eigenvalue -0.1\n"
)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_written_bytes_are_pinned(tmp_path):
    for fmt, golden in (("json-lines", GOLDEN_JSONL), ("csv", GOLDEN_CSV)):
        path = str(tmp_path / f"golden.{fmt}")
        write_report(REPORT, RECORDS, path, fmt)
        assert read_bytes(path) == golden.encode(), fmt
        assert read_bytes(path + ".summary") == GOLDEN_SUMMARY.encode(), fmt


def same_record(a, b):
    """Field-wise equality with NaN equal to NaN."""
    for f in fields(TrialRecord):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (x == y or (isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y))):
            return False
    return True


def test_nan_records_round_trip(tmp_path):
    for fmt in ("json-lines", "csv"):
        path = str(tmp_path / f"nan.{fmt}")
        write_report(REPORT, RECORDS, path, fmt)
        back = read_records(path, fmt)
        assert len(back) == len(RECORDS), fmt
        assert all(same_record(a, b) for a, b in zip(back, RECORDS)), fmt
        assert math.isnan(back[2].lhs) and math.isnan(back[2].rhs) and math.isnan(back[2].margin), fmt


def test_fields_read_back_as_their_declared_types(tmp_path):
    # whole-number floats are written without a point ("0", "1") and must
    # still read back as float; tuples read back as tuples
    hints = get_type_hints(TrialRecord)
    for fmt in ("json-lines", "csv"):
        path = str(tmp_path / f"types.{fmt}")
        write_report(REPORT, RECORDS, path, fmt)
        for record in read_records(path, fmt):
            for name, hint in hints.items():
                value = getattr(record, name)
                assert type(value) is getattr(hint, "__origin__", hint), (fmt, name, value)
                if isinstance(value, tuple):
                    assert all(type(v) is int for v in value), (fmt, name, value)


def test_an_unknown_format_is_a_usage_error(tmp_path):
    path = str(tmp_path / "r.txt")
    with pytest.raises(UsageError, match="unknown format 'xml'"):
        write_report(REPORT, RECORDS, path, "xml")
    assert not (tmp_path / "r.txt").exists()
    write_report(REPORT, RECORDS, path)
    with pytest.raises(UsageError, match="unknown format 'xml'"):
        read_records(path, "xml")
