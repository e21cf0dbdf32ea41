"""tools/ab_rounds.py runs both checkouts and checks every round's reports."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_checkout_against_itself_reports_identical_rounds():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_rounds.py"), str(ROOT), str(ROOT),
         "--workload", "window-scan", "--rounds", "2"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "first-round reports: identical" in lines
    assert "later rounds: identical" in lines
