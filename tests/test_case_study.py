"""The bytes that ``scripts/run_case_study.py`` prints, pinned per policy."""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys

import pytest

from conftest import CASES

SCRIPT = CASES.parent / "scripts" / "run_case_study.py"

#: sha256 of the script's standard output, with the referee's wall time masked.
DIGESTS = {
    "specificity-then-order": "2f0978f2a08c5c7827a3ab7d29fb0375a7acdfcd5edaf531b64d4767ad610303",
    "first-match": "b9d114890ea892c307221cb59f17e412f87884d661c98c8b6cac4c98dc0feed7",
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
    out = re.sub(r"elementary cells \(\d+\.\ds\)", "elementary cells (-s)", result.stdout)
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[policy]
