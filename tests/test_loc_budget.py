"""``tools/loc.py``: the arithmetic of its ``--check``, and that the
committed budget covers the tree it is committed with."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load():
    spec = importlib.util.spec_from_file_location("loc", TOOLS / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_what_counts_as_over_budget():
    loc = _load()
    budget = {"total": 1000, "files": {"src/a.py": 700}}
    assert loc.over_budget({"total": 1000, "files": {"src/a.py": 700}}, budget) == []
    # shrinking is free, and a file that fell under the line leaves quietly
    assert loc.over_budget({"total": 900, "files": {}}, budget) == []
    grew = loc.over_budget(
        {"total": 1001, "files": {"src/a.py": 701, "src/b.py": 601}}, budget
    )
    assert len(grew) == 3
    assert "src/ is 1001 lines, budget 1000" in grew[0]
    assert "src/a.py is 701 lines, budget 700" in grew[1]
    assert "src/b.py crossed 600 lines (601), no budget" in grew[2]


def test_summarise_keeps_only_the_large_files():
    loc = _load()
    assert loc.summarise({"src/a.py": 600, "src/b.py": 601}) == {
        "total": 1201,
        "files": {"src/b.py": 601},
    }


def test_the_committed_budget_covers_this_tree():
    """Grew a number on purpose? ``python tools/loc.py --write`` and
    commit the budget with the change, so the growth is seen."""
    loc = _load()
    budget = json.loads((TOOLS / "loc_budget.json").read_text())
    assert loc.over_budget(loc.summarise(loc.count()), budget) == []
