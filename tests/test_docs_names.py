"""Every name the docs cite in code style exists in the code.

A backticked snake_case identifier in ``docs/*.md`` or ``README.md`` —
a function, method, attribute, option or metric, optionally written
``Class.name`` or called ``name(...)`` — must appear in some Python
file under ``src/``, ``tests/``, ``bench/``, ``benchmarks/``,
``examples/`` or ``tools/``, so a rename or a removal cannot leave a
doc pointing at nothing. Serving metrics are built per tier
(``f"{tier}_connections_open"``), so a name that starts with a tier's
prefix matches on what follows it.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "tests", "bench", "benchmarks", "examples", "tools")
#: The tiers ``repro.server.service`` builds metric names for.
TIER_PREFIXES = ("server_", "router_")
CITED = re.compile(r"`([^`\n]+)`")
IDENTIFIER = re.compile(r"^(?:[A-Z]\w*\.)?([a-z_][a-z0-9_]*)(?:\(.*\))?$")


def code_words() -> set[str]:
    return {
        word
        for directory in CODE_DIRS
        for path in (ROOT / directory).rglob("*.py")
        for word in re.findall(r"\w+", path.read_text(errors="replace"))
    }


def cited_names() -> dict[str, set[str]]:
    """``{name: {doc file, ...}}`` for every identifier a doc cites."""
    cited: dict[str, set[str]] = {}
    docs = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
    for doc in docs:
        for token in CITED.findall(doc.read_text()):
            match = IDENTIFIER.match(token.strip())
            if match and "_" in match.group(1):
                cited.setdefault(match.group(1), set()).add(doc.name)
    return cited


def known(name: str, words: set[str]) -> bool:
    if name in words:
        return True
    for prefix in TIER_PREFIXES:
        if name.startswith(prefix):
            rest = name[len(prefix):]
            return rest in words or rest.removesuffix("_total") in words
    return False


def test_every_cited_name_exists_in_the_code():
    words = code_words()
    missing = {
        name: sorted(docs)
        for name, docs in cited_names().items()
        if not known(name, words)
    }
    assert not missing, f"docs cite names the code lacks: {missing}"


def test_the_scan_sees_the_names_it_checks():
    """The pattern reads the forms the docs use, and a tier's metric
    counts as present only through its suffix."""
    words = {"quarantine_run", "connections_open"}
    assert IDENTIFIER.match("LSMStore.quarantine_run").group(1) == (
        "quarantine_run"
    )
    assert IDENTIFIER.match("_install()").group(1) == "_install"
    assert known("server_connections_open", words)
    assert not known("server_connections_total", words)
    assert not known("register_flush", words)
