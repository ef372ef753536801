"""The documentation set must exist and its links must resolve —
the same check CI's docs job runs via tools/check_links.py."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_checker():
    path = REPO / "tools" / "check_links.py"
    spec = importlib.util.spec_from_file_location("check_links", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_documentation_set_exists():
    for name in ("README.md", "docs/engine.md", "docs/workloads.md"):
        assert (REPO / name).exists(), name


def test_committed_docs_have_no_broken_links(capsys):
    checker = _load_checker()
    assert checker.main([]) == 0
    assert "all links resolve" in capsys.readouterr().out


def test_checker_flags_broken_links(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text("# Real\n[a](missing.md)\n[b](#nope)\n[c](#real)\n")
    checker = _load_checker()
    assert checker.main([str(doc)]) == 1
    err = capsys.readouterr().err
    assert "missing.md" in err
    assert "#nope" in err
    assert "#real" not in err


def test_checker_ignores_code_fences_and_external(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "[ext](https://example.com/x)\n"
        "```\n[fake](never.md)\n```\n"
    )
    checker = _load_checker()
    assert checker.main([str(doc)]) == 0


def test_readme_quickstart_commands_are_current():
    """The quickstart must reference real entry points: the pytest
    invocation, the CLI module, and the matrix subcommand."""
    text = (REPO / "README.md").read_text()
    assert "python -m pytest -x -q" in text
    assert "python -m repro matrix" in text
    assert "pip install -e .[dev]" in text
