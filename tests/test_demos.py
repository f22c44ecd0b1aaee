"""Smoke test of the demo scripts and of README's Python examples: each runs
to completion against the package's public API, so a removed or renamed
name they use fails here."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # run from an empty directory, so a demo that writes files shows here
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []


def _readme_quick_start_blocks() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_quick_start_blocks_run(capsys):
    blocks = _readme_quick_start_blocks()
    assert len(blocks) == 2
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md quick start block {i + 1}", "exec"), {})
    printed = [float(line) for line in capsys.readouterr().out.splitlines()]
    assert len(printed) == 3
    # flat space: the distance to the true unit jump is |magnitude - 1|
    assert printed[1] == pytest.approx(abs(printed[0] - 1.0), abs=1e-12)
