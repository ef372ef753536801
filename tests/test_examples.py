"""Smoke tests: every example script runs green end to end."""

import os
import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"


def run_example(name, *args, timeout=300):
    # The examples are standalone scripts; make the src-layout package
    # importable for them whether or not the package is installed (the
    # test process itself gets it from pyproject's pytest pythonpath).
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, (
        f"{name} failed:\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "recovered the two account clusters" in out


def test_ethereum_replay():
    out = run_example("ethereum_replay.py", "--scale", "0.05", "--k", "6")
    assert "TxAllo (ours)" in out
    assert "Shard Scheduler" in out


def test_adaptive_reallocation():
    out = run_example(
        "adaptive_reallocation.py", "--blocks", "30", "--block-size", "40",
        "--tau1", "3", "--tau2", "15", "--k", "4",
    )
    assert "A-TxAllo" in out


def test_protocol_integration():
    out = run_example("protocol_integration.py", "--k", "4", "--scale", "0.05")
    assert "identical allocations" in out
    assert "agree with the event-level simulation" in out
    assert "digest matches" in out


def test_live_comparison():
    out = run_example("live_comparison.py", "--scale", "0.05", "--k", "4")
    assert "registered allocators" in out
    assert "Live comparison" in out
    for label in ("Our Method", "Random", "Metis", "Shard Scheduler"):
        assert label in out
    assert "round_robin" in out
    assert "instantly comparable" in out


def test_csv_replay(tmp_path):
    """The --csv path of ethereum_replay works on a real-format export."""
    csv = tmp_path / "txs.csv"
    rows = ["hash,from_address,to_address,block_number\n"]
    for i in range(400):
        a, b = i % 23, (i * 7 + 1) % 23
        rows.append(f"0xh{i},0x{a:040x},0x{b:040x},{100 + i // 50}\n")
    csv.write_text("".join(rows))
    out = run_example("ethereum_replay.py", "--csv", str(csv), "--k", "4")
    assert "loaded 400 transactions" in out
