"""Every name the docs cite in code style exists in the code.

A backticked snake_case identifier in ``docs/*.md`` or ``README.md`` —
a function, method, attribute, option or metric, optionally written
``Class.name`` or called ``name(...)`` — must appear in some Python
file under ``src/``, ``tests/``, ``bench/``, ``benchmarks/``,
``examples/`` or ``tools/``, so a rename or a removal cannot leave a
doc pointing at nothing. Serving metrics are built per tier
(``f"{tier}_connections_open"``), so a name that starts with a tier's
prefix matches on what follows it.

Three kinds of name are held to the program itself: a
``StoreOptions`` field, with any value cited for it; a ``repro`` flag,
by the subcommand it is cited with; and an ``engine_*``, ``server_*``
or ``cluster_*`` metric, labels and ``{a,b}`` alternatives included,
which ``src/`` must name. A name flagged here is mended in the doc.
"""

import argparse
import ast
import re
from dataclasses import fields
from pathlib import Path

from repro.cli import build_parser
from repro.engine import StoreOptions
from repro.errors import ConfigurationError

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "tests", "bench", "benchmarks", "examples", "tools")
#: The tiers ``repro.server.service`` builds metric names for.
TIER_PREFIXES = ("server_", "router_")
CITED = re.compile(r"`([^`\n]+)`")
IDENTIFIER = re.compile(r"^(?:[A-Z]\w*\.)?([a-z_][a-z0-9_]*)(?:\(.*\))?$")


def code_words(directories=CODE_DIRS) -> set[str]:
    return {
        word
        for directory in directories
        for path in (ROOT / directory).rglob("*.py")
        for word in re.findall(r"\w+", path.read_text(errors="replace"))
    }


def cited_tokens() -> list[tuple[str, str]]:
    """``(doc file, token)`` for every backticked span of the docs."""
    docs = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
    return [
        (doc.name, token.strip())
        for doc in docs
        for token in CITED.findall(doc.read_text())
    ]


def cited_names() -> dict[str, set[str]]:
    """``{name: {doc file, ...}}`` for every identifier a doc cites."""
    cited: dict[str, set[str]] = {}
    for doc, token in cited_tokens():
        match = IDENTIFIER.match(token)
        if match and "_" in match.group(1):
            cited.setdefault(match.group(1), set()).add(doc)
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


# -- StoreOptions fields ----------------------------------------------------

FIELDS = {field.name: field for field in fields(StoreOptions)}
#: ``name=value`` inside a token; ``options.name`` as an attribute.
KEYWORD = re.compile(r"(?:^|[(,\s.])([a-z_]+)=([^,)\s]*)")
ATTRIBUTE = re.compile(r"\b(?:StoreOptions|options)\.([a-z_]+)")
#: A value that stands for "some value": ``N``, ``BYTES``.
PLACEHOLDER = re.compile(r"^[A-Z][A-Z_]*$")


def option_problem(token: str) -> str | None:
    """Why ``token`` cites ``StoreOptions`` wrongly, or None.

    In a ``StoreOptions(...)`` call every keyword is a field; wherever a
    field is given a value, the options take it (a literal is passed to
    them; ``...`` stands for anything); a placeholder such as ``N`` says
    the field takes more than its default, so the default plus one must
    construct too. ``options.name`` names a field or a method."""
    call = token.startswith("StoreOptions(")
    literal = {}
    for name, value in KEYWORD.findall(token):
        if name not in FIELDS:
            if call:
                return f"StoreOptions has no field {name!r}"
            continue
        if value in ("", "..."):
            continue
        if PLACEHOLDER.match(value):
            default = FIELDS[name].default
            if isinstance(default, bool) or not isinstance(default, (int, float)):
                continue
            value = repr(default + 1)
        try:
            literal[name] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            continue  # an expression
    try:
        StoreOptions(**literal)
    except ConfigurationError as error:
        return f"StoreOptions({literal}) is refused: {error}"
    for name in ATTRIBUTE.findall(token):
        if name not in FIELDS and not hasattr(StoreOptions, name):
            return f"StoreOptions has no field {name!r}"
    return None


def test_every_cited_store_option_is_a_field_with_that_value():
    wrong = {
        (doc, token, problem)
        for doc, token in cited_tokens()
        if (problem := option_problem(token)) is not None
    }
    assert not wrong, f"docs cite options the store refuses: {sorted(wrong)}"


# -- repro command-line flags ----------------------------------------------

COMMAND = re.compile(r"^(?:repro-lsm|repro|python3? -m repro)\s+([a-z-]+)(.*)$")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
DECLARED = re.compile(r"""add_argument\(\s*["'](--[a-z][a-z0-9-]*)""")


def subcommand_flags() -> dict[str, set[str]]:
    """``{subcommand: its flags}`` of ``repro``'s own parser."""
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {flag for action in parser._actions for flag in action.option_strings}
        for name, parser in subparsers.choices.items()
    }


def script_flags() -> set[str]:
    """Flags the scripts beside the package declare (``--quick``, ...)."""
    return {
        flag
        for directory in ("bench", "benchmarks", "examples", "tools")
        for path in (ROOT / directory).rglob("*.py")
        for flag in DECLARED.findall(path.read_text(errors="replace"))
    }


def test_every_cited_flag_is_accepted_where_it_is_cited():
    """A flag cited after a ``repro`` subcommand is one of that
    subcommand's; a flag cited alone is one some parser declares."""
    commands = subcommand_flags()
    anywhere = set().union(*commands.values()) | script_flags()
    wrong = set()
    for doc, token in cited_tokens():
        if "<" in token:  # a pattern, ``--<field-with-dashes>``
            continue
        command = COMMAND.match(token)
        if command and command.group(1) in commands:
            accepted, text = commands[command.group(1)], command.group(2)
        elif token.startswith("--"):
            accepted, text = anywhere, token
        else:
            continue
        wrong |= {
            (doc, token) for flag in FLAG.findall(text) if flag not in accepted
        }
    assert not wrong, f"docs cite flags no parser accepts: {sorted(wrong)}"


# -- metric names -----------------------------------------------------------

METRIC = re.compile(r"^(?:engine|server|cluster)_[a-z0-9_{},*|\"= ]*$")
ALTERNATIVES = re.compile(r"\{([a-z0-9_]+(?:,[a-z0-9_]+)+)\}(?=[a-z_])")


def metric_names(token: str) -> list[str]:
    """The metric names ``token`` cites: labels (a trailing ``{...}``)
    dropped, ``{a,b}`` inside a name expanded, ``a / b`` split. A name
    with a ``*`` is a family."""
    names = []
    for part in token.split(" / "):
        part = re.sub(r"\{[^}]*\}$", "", part.strip())
        pending = [part]
        while pending:
            name = pending.pop()
            choice = ALTERNATIVES.search(name)
            if choice is None:
                names.append(name)
                continue
            pending += [
                name[: choice.start()] + option + name[choice.end():]
                for option in choice.group(1).split(",")
            ]
    return names


def test_every_cited_metric_is_one_the_program_names():
    words = code_words(("src",))
    wrong = set()
    for doc, token in cited_tokens():
        if not METRIC.match(token):
            continue
        for name in metric_names(token):
            prefix = name.split("*")[0]
            if name == prefix:
                found = known(name, words)
            else:
                found = any(word.startswith(prefix) for word in words)
            if not found:
                wrong.add((doc, token))
    assert not wrong, f"docs cite metrics src/ never names: {sorted(wrong)}"


def test_the_checks_catch_what_they_are_for():
    assert option_problem("StoreOptions(maintenance_threads=N)")
    assert option_problem("maintenance_threads=2")
    assert option_problem("StoreOptions(wire=True)")
    assert option_problem("options.maintenance_pool")
    assert option_problem("StoreOptions(block_codec=\"zlib\")") is None
    assert option_problem("memtable_bytes=N") is None
    assert option_problem("wait=False") is None
    flags = subcommand_flags()
    assert "--maintenance-threads" not in flags["serve"]
    assert "--memtable-bytes" in flags["serve"]
    assert metric_names('engine_block_cache_{hits,misses}_total{tier}') == [
        "engine_block_cache_misses_total", "engine_block_cache_hits_total",
    ]
    assert metric_names("engine_scrub_*") == ["engine_scrub_*"]
