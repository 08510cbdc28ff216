"""The BENCH_*.json files at the repository root record each measured
change's benchmark runs; later changes read them as baselines and
templates, so each must load as JSON."""

import json
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def test_records_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_loads(path):
    assert isinstance(json.loads(path.read_text()), dict)
