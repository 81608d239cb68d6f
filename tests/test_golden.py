"""The golden cases reproduce the artifacts recorded in golden.json.

Under the NumPy major.minor the file was recorded with, every artifact must
hash as recorded. Under another one (the CI floor job, for example) the
float bytes may legitimately differ, so only the metric reports are
compared, each value within 1e-12 of the recorded one. Re-record with
``tests/record_golden.py``.
"""

import json
import math

import numpy as np
import pytest

from record_golden import ARTIFACTS, CASES, GOLDEN, REPORTS, run_case, sha256
from spmlab.training import METHODS

RECORDED = json.loads(GOLDEN.read_text())
SAME_NUMPY = np.__version__.split(".")[:2] == RECORDED["numpy"].split(".")[:2]
TOLERANCE = 0.0 if SAME_NUMPY else 1e-12


def first_difference(got, want, tol: float, path: str):
    """The first field, as a path, where ``got`` and ``want`` differ by more than ``tol``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return f"{path}: keys {list(got) if isinstance(got, dict) else got!r}"
        return next((d for k in want if (d := first_difference(got[k], want[k], tol,
                                                               f"{path}.{k}"))), None)
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: {got!r}, recorded {want!r}"
        return next((d for i, (g, w) in enumerate(zip(got, want))
                     if (d := first_difference(g, w, tol, f"{path}[{i}]"))), None)
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) and math.isnan(got) or abs(got - want) <= tol:
            return None
    elif got == want:
        return None
    return f"{path}: {got!r}, recorded {want!r}"


def test_golden_file_covers_every_case():
    assert list(RECORDED["sha256"]) == list(CASES)
    assert all(list(RECORDED["sha256"][m]) == list(ARTIFACTS) for m in METHODS)
    assert list(RECORDED["metrics"]) == [*METHODS, "eval"]


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_golden(case, tmp_path):
    artifacts = run_case(case, tmp_path)
    for name in REPORTS:
        if name in artifacts:
            diff = first_difference(json.loads(artifacts[name]), RECORDED["metrics"][case],
                                    TOLERANCE, name)
            assert diff is None, f"{case}: {diff}"
    if SAME_NUMPY:
        assert list(artifacts) == list(RECORDED["sha256"][case])
        changed = [name for name, data in artifacts.items()
                   if sha256(data) != RECORDED["sha256"][case][name]]
        assert not changed, f"{case}: {', '.join(changed)} differ from golden.json"
