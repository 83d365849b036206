"""tests/stage_times.py, the per-stage timing script, runs as a script and
reports every stage at every split count it is given."""
import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "stage_times.py")


def test_the_stage_timer_reports_every_stage():
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--tiles", "1,16", "--rounds", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert out["rounds"] == 1
    assert list(out["ms"]) == ["1", "16"]
    for stages in out["ms"].values():
        assert list(stages) == ["apply_split", "validate_system",
                                "tally_nets", "derive", "evaluate",
                                "report_to_json", "report_to_csv"]
        assert all(ms > 0 for ms in stages.values())
