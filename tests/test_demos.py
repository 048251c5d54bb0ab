"""Every demo script, and README's library quickstart, runs to completion
from a scratch directory, and README's CLI lines parse."""
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mrfcm import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def assert_script_exits_zero(script, cwd):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script, tmp_path):
    assert_script_exits_zero(script, tmp_path)


def test_readme_quickstart_exits_zero(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quickstart.py"
    script.write_text(code, encoding="utf-8")
    assert_script_exits_zero(script, tmp_path)


def test_readme_cli_lines_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("mrfcm ")]
    assert sorted(argv[0] for argv in commands) == ["bench", "cluster", "mca-info", "sweep"]
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a usage error exits and fails the test
