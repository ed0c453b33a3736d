"""Each quick demo script, and each README quick start, runs to completion."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fedbias.cli import main

ROOT = Path(__file__).resolve().parent.parent

QUICK_DEMOS = [
    "head_mechanics",
    "metrics_tour",
    "biased_data",
    "federated_round",
    "three_mode_comparison",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def readme_blocks(heading):
    """The fenced code blocks of README section ``heading``, as (language, text)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```(\w+)\n(.*?)^```", section, re.MULTILINE | re.DOTALL)


def test_readme_quick_starts_run_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    blocks = dict(readme_blocks("Quick start (CLI)"))
    Path("demo.cfg").write_text(blocks["ini"], encoding="utf-8")
    commands = [shlex.split(line, comments=True) for line in blocks["sh"].splitlines()]
    run = [argv[1:] for argv in commands if argv[1] in ("train", "compare")]
    assert [argv[0] for argv in run] == ["train", "compare"]
    for argv in run:
        assert main(argv) == 0, capsys.readouterr().err
    # The section's first block runs a federation; the later ones are fragments.
    lang, library = readme_blocks("Quick start (library)")[0]
    assert lang == "python"
    exec(library, {})
    assert "'acc':" in capsys.readouterr().out
