"""README's library quick start runs as written and gives what it states."""
import ast
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_quick_start_runs_and_gives_its_stated_moments():
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README, re.S).group(1)
    line = next(ln for ln in block.splitlines() if ln.startswith("report.for_state(0)"))
    stated = ast.literal_eval(line.split("#", 1)[1].strip())
    assert stated == (25.0, 1025.0, 400.0)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].for_state(0) == pytest.approx(stated, rel=1e-12)
    # the problem's series is the unlumped chain's column, after its n = 0 term
    series, table = namespace["series"], namespace["table"]
    assert series[0] == 0.0 and len(series) == 101
    assert series[1:] == pytest.approx(table.column(0)[:100], rel=1e-12, abs=0.0)
