"""The bytes that ``scripts/run_case_study.py`` prints, pinned per policy."""

from __future__ import annotations

import hashlib
import subprocess
import sys

import pytest

from conftest import CASES

SCRIPT = CASES.parent / "scripts" / "run_case_study.py"

#: sha256 of the script's standard output (the referee's wall time goes to stderr).
DIGESTS = {
    "specificity-then-order": "a6b9aea3de87d1f98fd3fb7e8a7b1f2b72a249f37674ceff5a7cdc7d481f33b3",
    "first-match": "bcbf3d5b1242135c74bace6b3a3256d5a9e5ba71d7f743594bf2737d42308eb9",
}


@pytest.mark.parametrize("policy", sorted(DIGESTS))
def test_case_study_keeps_its_bytes(policy):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--policy", policy],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == DIGESTS[policy]
