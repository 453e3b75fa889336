"""The docs gate runs inside tier-1.

Wraps ``tools/check_docs.py`` so a broken intra-repo link, an undocumented
public API in ``repro.engine``/``repro.dynamic``, a broken README
quickstart or a ``repro.`` cross-reference that no longer resolves fails
the ordinary test suite, not just the CI docs job.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_docs


def test_required_docs_exist():
    root = check_docs.ROOT
    for rel in ("README.md", "docs/architecture.md", "docs/paper_map.md"):
        assert (root / rel).is_file(), f"missing {rel}"


def test_intra_repo_links_resolve():
    assert check_docs.check_links() == []


def test_engine_and_dynamic_public_api_docstrings():
    assert check_docs.check_docstrings() == []


def test_readme_quickstart_runs():
    assert check_docs.check_quickstart() == []


def test_cross_references_resolve():
    assert check_docs.check_xrefs() == []


def test_stale_cross_reference_is_caught():
    assert check_docs._resolves("repro.engine.oracle.split_points_kernel")
    assert check_docs._resolves("repro.parallel.ShardExecutor.run_sharded")
    assert not check_docs._resolves("repro.engine.oracle.no_such_kernel")
    assert not check_docs._resolves("repro.no_such_module.thing")
