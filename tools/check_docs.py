#!/usr/bin/env python
"""Docs gate: intra-repo links, public-API docstring coverage, quickstart,
tool docstrings and cross-references.

Five checks, all dependency-free (stdlib + the library itself):

1. **Links** — every relative link/image target in the repo's Markdown
   files must exist (external ``http(s)``/``mailto`` targets are skipped,
   ``#fragment`` parts are ignored).
2. **Docstrings** — every public module / class / function / method
   defined under the packages of ``DOCSTRING_PACKAGES`` must carry a
   non-trivial docstring (the ``interrogate --fail-under 100`` contract,
   implemented with ``inspect`` so the offline image needs no extra
   package).
3. **Quickstart** — the first ``python`` code block of README.md is
   executed; a broken quickstart fails the gate.
4. **Tools** — every ``tools/*.py`` script must carry a module docstring
   and document its top-level public functions (checked via ``ast`` so
   the gate never imports — and thereby runs — a CLI script).
5. **Cross-references** — every Sphinx role target (``:func:``,
   ``:class:``, ``:meth:``, ``:mod:``, ``:data:``, ``:attr:``, ``:exc:``)
   in ``src/repro`` that names a ``repro.`` path must resolve by import
   plus ``getattr``, so deleting or renaming an API cannot leave a
   docstring pointing at it.

Run from the repository root::

    python tools/check_docs.py            # all checks
    python tools/check_docs.py links docstrings   # a subset

Exit status 0 iff every requested check passes.
"""

from __future__ import annotations

import ast
import inspect
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose links are validated.
MARKDOWN_GLOBS = ["*.md", "docs/*.md"]

#: Packages whose public APIs must be fully documented.
DOCSTRING_PACKAGES = [
    "repro.engine",
    "repro.dynamic",
    "repro.obs",
    "repro.parallel",
    "repro.service",
    "repro.service.wire",
    "repro.walks",
]

#: Minimum docstring length to count as documentation, not a placeholder.
MIN_DOCSTRING = 10

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A Sphinx cross-reference role and its target text.
_XREF_RE = re.compile(r":(?:func|class|meth|mod|data|attr|exc):`([^`]+)`")


def iter_markdown_files():
    """Yield every Markdown file the link check covers."""
    for pattern in MARKDOWN_GLOBS:
        yield from sorted(ROOT.glob(pattern))


def check_links() -> list[str]:
    """Return a list of 'file: broken-target' problems."""
    problems = []
    for md in iter_markdown_files():
        text = md.read_text(encoding="utf-8")
        # Strip fenced code blocks: link syntax inside code is not a link.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{md.relative_to(ROOT)}: broken link -> {target}"
                )
    return problems


def _public_members(module):
    """Yield (qualified name, object) for the module's public API."""
    mod_name = module.__name__
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != mod_name:
            continue  # re-export; documented at its definition site
        yield f"{mod_name}.{name}", obj
        if inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(
                    member, (property, classmethod, staticmethod)
                ):
                    yield f"{mod_name}.{name}.{mname}", member


def _has_docstring(obj) -> bool:
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        obj = obj.fget
    doc = inspect.getdoc(obj)
    return doc is not None and len(doc.strip()) >= MIN_DOCSTRING


def check_docstrings() -> list[str]:
    """Return a list of undocumented public API members."""
    import importlib
    import pkgutil

    problems = []
    for pkg_name in DOCSTRING_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        modules = [pkg]
        for info in pkgutil.iter_modules(pkg.__path__):
            if not info.name.startswith("_"):
                modules.append(
                    importlib.import_module(f"{pkg_name}.{info.name}")
                )
        for module in modules:
            if not _has_docstring(module):
                problems.append(f"{module.__name__}: missing module docstring")
            for qual, obj in _public_members(module):
                if not _has_docstring(obj):
                    problems.append(f"{qual}: missing docstring")
    return problems


def check_quickstart() -> list[str]:
    """Execute README.md's first ``python`` code block."""
    readme = ROOT / "README.md"
    match = re.search(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
    if match is None:
        return ["README.md: no ```python quickstart block found"]
    code = match.group(1)
    try:
        exec(compile(code, "README.md:quickstart", "exec"), {"__name__": "__quickstart__"})
    except Exception as exc:  # pragma: no cover - failure path
        return [f"README.md quickstart raised {type(exc).__name__}: {exc}"]
    return []


def check_tools() -> list[str]:
    """Every ``tools/*.py`` script: module docstring plus docstrings on
    all top-level public functions — parsed with ``ast`` (importing a
    CLI script would execute it)."""
    problems = []
    for script in sorted((ROOT / "tools").glob("*.py")):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        rel = script.relative_to(ROOT)
        doc = ast.get_docstring(tree)
        if not doc or len(doc.strip()) < MIN_DOCSTRING:
            problems.append(f"{rel}: missing module docstring")
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            fdoc = ast.get_docstring(node)
            if not fdoc or len(fdoc.strip()) < MIN_DOCSTRING:
                problems.append(
                    f"{rel}: function {node.name} missing docstring"
                )
    return problems


def _resolves(target: str) -> bool:
    """Whether a dotted ``repro.`` path names an object: the longest
    importable module prefix, then ``getattr`` for the rest."""
    import importlib

    parts = target.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for name in parts[i:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def check_xrefs() -> list[str]:
    """Every ``repro.`` cross-reference target in ``src/repro`` must
    resolve (``~`` and ``title <target>`` forms included)."""
    problems = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        # A backslash-newline inside a docstring joins the two lines.
        text = path.read_text(encoding="utf-8").replace("\\\n", "")
        for match in _XREF_RE.finditer(text):
            target = match.group(1)
            if "<" in target:
                target = target[target.index("<") + 1:target.rindex(">")]
            target = target.lstrip("~!")
            if target.startswith("repro.") and not _resolves(target):
                problems.append(
                    f"{path.relative_to(ROOT)}: unresolved reference "
                    f"{match.group(0)}"
                )
    return problems


CHECKS = {
    "links": check_links,
    "docstrings": check_docstrings,
    "quickstart": check_quickstart,
    "tools": check_tools,
    "xrefs": check_xrefs,
}


def main(argv: list[str]) -> int:
    """Run the requested checks (all by default); 0 iff all pass."""
    sys.path.insert(0, str(ROOT / "src"))
    names = argv or list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        print(f"unknown checks: {unknown}; available: {sorted(CHECKS)}")
        return 2
    failed = False
    for name in names:
        problems = CHECKS[name]()
        status = "ok" if not problems else f"{len(problems)} problem(s)"
        print(f"[{name}] {status}")
        for p in problems:
            print(f"  - {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
