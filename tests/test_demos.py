"""The demos run start to finish against the library as it is."""

import pytest

from helpers import ROOT, run_python

DEMOS = ["01_train_and_search.py", "02_rank_teams.py", "03_value_estimation.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_without_error(demo, tmp_path):
    proc = run_python(str(ROOT / "demos" / demo), cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
