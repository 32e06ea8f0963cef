"""Run the narrative demos end to end, so a renamed or dropped name fails here
and a changed output is seen.

Demo 05 times a sweep over 100k vertices and runs as its own CI step.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))
# SHA-256 of each demo's stdout, which is deterministic; those of commit 5526349
STDOUT_DIGESTS = {
    "01_recoloring_basics.py":
        "972ac59ef08accbe670d02650618748d70b81a366b4a722427f6bafe59420024",
    "02_caterpillar_sweep.py":
        "0e60d24c1bd717f1b86888ef41bca64196204d52c744032edcdb62fcedf554b0",
    "03_normalization_and_lifting.py":
        "c83593c2857099d8bc547fda8c545cef5aa37588fa3eb57b67dc6a508bb8eb0e",
    "04_rerouting_to_coloring.py":
        "c9f36a0f49de18b056645c1946cb21d4845eaaeeee5ca0e8abdb1d11385c7586",
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_DIGESTS[name]
