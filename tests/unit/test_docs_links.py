"""Link integrity for the markdown documentation.

Every relative link in ``docs/`` (plus the top-level pages that point
into it) must resolve to a file that exists in the repository, and
every fragment (``#anchor``) must match a heading in the target file
using GitHub's slug rules. External ``http(s)`` links are out of scope
— checking them would make tier-1 depend on the network.

This is satellite coverage for the docs site: a renamed file or heading
breaks this test instead of silently 404ing for readers. The same goes
for code references in prose: every backticked repo path
(``tests/...``, ``src/...``, ...) and every ``python -m tests....``
module named in the docs, README.md, EXPERIMENTS.md or DESIGN.md must
exist.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

DOC_FILES = sorted(
    [
        *(REPO_ROOT / "docs").rglob("*.md"),
        REPO_ROOT / "README.md",
        REPO_ROOT / "EXPERIMENTS.md",
    ]
)

# [text](target) — markdown inline links; images share the syntax.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_CODE_FENCE_RE = re.compile(r"^(```|~~~)")


def _github_slug(heading: str) -> str:
    """Slugify a heading the way GitHub's anchor generator does."""
    text = heading.strip()
    # Inline code / formatting marks contribute their text, not markers.
    text = re.sub(r"[`*_]", "", text)
    # Drop trailing markdown link targets inside headings, keep the text.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _prose_lines(path: Path) -> list[str]:
    """The lines of a markdown file outside fenced code blocks."""
    lines: list[str] = []
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _CODE_FENCE_RE.match(line):
            in_fence = not in_fence
        elif not in_fence:
            lines.append(line)
    return lines


def _headings(path: Path) -> set[str]:
    matches = (_HEADING_RE.match(line) for line in _prose_lines(path))
    return {_github_slug(match.group(2)) for match in matches if match}


def _links(path: Path) -> list[str]:
    return [link for line in _prose_lines(path) for link in _LINK_RE.findall(line)]


def test_doc_files_present() -> None:
    """The docs tree this suite guards actually exists."""
    names = {path.relative_to(REPO_ROOT).as_posix() for path in DOC_FILES}
    for required in (
        "docs/README.md",
        "docs/architecture.md",
        "docs/faults.md",
        "docs/tuning.md",
        "docs/profiling.md",
        "docs/fleet.md",
        "docs/control.md",
        "docs/surrogate.md",
        "docs/api/obs.md",
        "docs/api/exec.md",
        "docs/api/faults.md",
        "docs/api/tune.md",
        "docs/api/prof.md",
        "docs/api/fleet.md",
        "docs/api/ctl.md",
        "docs/api/surrogate.md",
        "README.md",
        "EXPERIMENTS.md",
    ):
        assert required in names, f"missing documentation page: {required}"


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=lambda p: p.relative_to(REPO_ROOT).as_posix()
)
def test_relative_links_resolve(doc: Path) -> None:
    broken: list[str] = []
    for target in _links(doc):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        raw_path, _, fragment = target.partition("#")
        if raw_path:
            resolved = (doc.parent / raw_path).resolve()
            if not resolved.exists():
                broken.append(f"{target} -> {raw_path} does not exist")
                continue
        else:
            resolved = doc
        if fragment and resolved.suffix == ".md":
            if fragment not in _headings(resolved):
                broken.append(f"{target} -> no heading slug '{fragment}'")
    assert not broken, (
        f"{doc.relative_to(REPO_ROOT)} has broken links:\n  "
        + "\n  ".join(broken)
    )


PROSE_FILES = sorted([*DOC_FILES, REPO_ROOT / "DESIGN.md"])

# `tests/...`-style inline code spans; <name>/* are wildcards and
# {a,b} lists alternatives that must each exist.
_REPO_PATH_RE = re.compile(
    r"`((?:tests|src|docs|examples|benchmarks|perfbench)/[^`\s]*)`"
)
_TEST_MODULE_RE = re.compile(r"python -m (tests(?:\.\w+)+)")


def _expand(path: str) -> list[str]:
    """Brace alternatives: ``a_{x,y}.json`` -> ``a_x.json``, ``a_y.json``."""
    match = re.search(r"\{([^}]*)\}", path)
    if match is None:
        return [path]
    return [
        expanded
        for option in match.group(1).split(",")
        for expanded in _expand(path[: match.start()] + option + path[match.end() :])
    ]


def _repo_path_exists(path: str) -> bool:
    pattern = re.sub(r"<[^>]*>", "*", path)
    if "*" in pattern:
        return any(REPO_ROOT.glob(pattern))
    return (REPO_ROOT / pattern).exists()


@pytest.mark.parametrize(
    "doc", PROSE_FILES, ids=lambda p: p.relative_to(REPO_ROOT).as_posix()
)
def test_backticked_repo_paths_exist(doc: Path) -> None:
    stale = [
        path
        for line in _prose_lines(doc)
        for quoted in _REPO_PATH_RE.findall(line)
        for path in _expand(quoted)
        if not _repo_path_exists(path)
    ]
    assert not stale, f"{doc.relative_to(REPO_ROOT)} cites missing paths: {stale}"


@pytest.mark.parametrize(
    "doc", PROSE_FILES, ids=lambda p: p.relative_to(REPO_ROOT).as_posix()
)
def test_python_m_test_modules_exist(doc: Path) -> None:
    text = doc.read_text(encoding="utf-8")
    stale = [
        module
        for module in _TEST_MODULE_RE.findall(text)
        if not (REPO_ROOT / (module.replace(".", "/") + ".py")).exists()
    ]
    assert not stale, f"{doc.relative_to(REPO_ROOT)} runs missing modules: {stale}"
