"""A user-defined fuzz target runs through the README's CLI launcher.

``python -m repro`` imports only the built-in targets, so a user target
reaches the CLI through a launcher that imports the target's module and
then calls ``repro.cli.main``. This runs the README's launcher block
verbatim, next to a toy target module, for a short campaign.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: A toy "att" target: the L2CAP reference target under another name.
_TOY_TARGET = """
from repro.targets import register_target
from repro.targets.l2cap import L2capTarget


@register_target
class AttTarget(L2capTarget):
    name = "att"
"""


def _readme_launcher() -> str:
    """The README's python block that calls ``repro.cli.main``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [
        block
        for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        if "from repro.cli import main" in block
    ]
    assert len(blocks) == 1, "the README must show exactly one CLI launcher"
    return blocks[0]


def _run(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    (tmp_path / "att_target.py").write_text(_TOY_TARGET, encoding="utf-8")
    launcher = tmp_path / "fuzz_att.py"
    launcher.write_text(_readme_launcher(), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, str(launcher), *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_launcher_fuzzes_a_registered_user_target(tmp_path):
    result = _run(tmp_path, "fuzz", "D2", "--target", "att", "--budget", "2000")
    assert result.returncode == 0, result.stderr
    assert "Protocol: att" in result.stdout
    assert "[DoS]" in result.stdout  # the armed D2 bug, found through "att"


def test_plain_module_entry_point_refuses_the_user_target(tmp_path):
    """The reason the launcher exists: ``python -m repro`` never
    imports the user's module, so the name is not a valid choice."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "fuzz", "D2", "--target", "att"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode != 0
    assert "invalid choice: 'att'" in result.stderr
