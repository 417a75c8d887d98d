"""Every example script must run cleanly — they are deliverables."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must narrate their results"


def test_expected_example_set():
    names = {path.stem for path in EXAMPLES}
    assert {
        "quickstart",
        "mail_server_consolidation",
        "capacity_planning",
        "tree_concurrency_study",
        "durable_protocol_server",
        "concurrent_server",
    } <= names
