"""Stateful property testing: the engine versus a dict, under chaos.

Hypothesis drives random interleavings of puts, deletes, flushes,
merge steps and full close/reopen cycles against a reference dict;
after every step, point lookups and full scans must agree with the
model, and every cached row and span hold the model's rows (a
``scan_across_a_span`` rule scans from before, inside and after a span
it cached). This is the strongest single correctness statement in the suite:
no sequence of maintenance operations may ever lose, resurrect, or
reorder data.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.engine import LSMStore, StoreOptions
from repro.engine import blockcache
from repro.engine.blockcache import SPAN_ADMIT_SCANS
from tests.engine.versions import current_version

OPTIONS = StoreOptions(
    memtable_bytes=4096,
    policy="tiering",
    size_ratio=3,
    levels=3,
    scheduler="greedy",
)

def name(index: int) -> bytes:
    return f"key{index:03d}".encode()


keys = st.integers(0, 30).map(name)
values = st.binary(min_size=1, max_size=40)


class EngineMatchesDict(RuleBasedStateMachine):
    options = OPTIONS

    @initialize()
    def open_store(self):
        self.directory = tempfile.mkdtemp(prefix="repro-stateful-")
        self.store = LSMStore.open(self.directory + "/db", self.options)
        self.model: dict[bytes, bytes] = {}

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        self.store.delete(key)
        self.model.pop(key, None)

    @rule()
    def flush(self):
        self.store.flush()

    @rule()
    def compact(self):
        self.store.maintenance()

    @rule()
    def merge_step(self):
        """One merge chunk on the caller — pending after ``flush``,
        which runs flushes only."""
        maintenance = self.store._maintenance
        with self.store._lock:
            maintenance._step(maintenance._claim_merge_locked)

    @rule()
    def crash_free_reopen(self):
        self.store.close()
        self.store = LSMStore.open(self.directory + "/db", self.options)

    @rule(key=keys)
    def lookup_agrees(self, key):
        assert self.store.get(key) == self.model.get(key)

    def scans_agree(self, lo, hi, limit, times=1):
        expected = sorted(
            (key, value)
            for key, value in self.model.items()
            if key >= lo and (hi is None or key < hi)
        )[:limit]
        for _ in range(times):
            assert list(self.store.scan(lo, hi, limit)) == expected

    @rule(
        first=st.integers(0, 30),
        width=st.integers(1, 8),
        limit=st.integers(1, 12),
    )
    def scan_across_a_span(self, first, width, limit):
        """Cache a span over ``[first, first + width)``, a bounded scan
        repeated until admitted, then scan from before it, inside it and
        from its end: each takes the span's rows as the answer inside it
        and the memtables' and runs' outside."""
        self.scans_agree(name(first), name(first + width), None, SPAN_ADMIT_SCANS)
        for start in (max(first - 2, 0), first + width // 2, first + width):
            self.scans_agree(name(start), None, limit)

    @invariant()
    def scan_agrees(self):
        assert dict(self.store.scan()) == self.model

    @invariant()
    def rows_and_spans_are_exact(self):
        """A write refreshes a resident row and the span it lands in, so
        every row is the answer a get would give and every span holds
        exactly the model's rows in its bounds."""
        cache = self.store._compaction.block_cache
        for key, row in list(cache._answers.items()):
            if type(key) is bytes:  # a row; a span is under (start,)
                assert row == self.model.get(key)
        for span in list(cache._spans):
            inside = sorted(
                (key, value)
                for key, value in self.model.items()
                if span.lo <= key and (span.end is None or key < span.end)
            )
            assert list(zip(span.keys, span.values)) == inside

    @invariant()
    def installed_version_is_current(self):
        """The version installed last — probe plan, snapshot, level
        counts, stall gate and headroom — equals one built
        anew from the manifest, the quarantine set and the memtables,
        whatever the last rule did to the tree."""
        current_version(self.store._compaction)

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)


class EngineWithASmallCacheMatchesDict(EngineMatchesDict):
    """The same machine on a cache of about 16 KB, a few blocks' worth,
    with values large enough that puts fill memtables and flush on their
    own: rows, spans and the blocks scans bring in share the budget, a
    key read twice in a row from a run is a row hit the second time, and
    a write refreshes the row and the span it lands in."""

    options = OPTIONS.with_(block_cache_bytes=16 * 1024)

    @initialize()
    def open_store(self):
        super().open_store()
        for i in range(31):  # every key, so most lookups find one
            self.put(name(i), bytes([i]) * 200)

    @rule(key=keys, value=st.binary(min_size=100, max_size=400))
    def put(self, key, value):
        super().put(key, value)

    @rule(key=keys)
    def lookup_twice(self, key):
        """From a run: the first get caches the key's row, the second
        (unless something evicted it in between) is a row hit."""
        self.store.flush()
        assert self.store.get(key) == self.model.get(key)
        assert self.store.get(key) == self.model.get(key)

    @rule(key=keys, other=keys, value=st.binary(min_size=100, max_size=400))
    def write_batch(self, key, other, value):
        """One batch writes ``key`` twice and deletes ``other``: a cached
        row of either takes the batch's last answer for it."""
        self.store.write_batch([(key, b"first"), (other, None), (key, value)])
        self.model.pop(other, None)
        self.model[key] = value

    @rule(
        lo=keys,
        hi=st.none() | keys,
        limit=st.integers(1, 8),
    )
    def bounded_scan_until_admitted(self, lo, hi, limit):
        """A bounded scan from a drawn key, as often as its span takes to
        be admitted: the last leaves a span (or merges into one), which
        a later draw inside it is answered from while writes refresh
        it."""
        self.scans_agree(lo, hi, limit, SPAN_ADMIT_SCANS)


class EngineWithATinyCacheMatchesDict(EngineWithASmallCacheMatchesDict):
    """The small-cache machine on 6 KiB, less than the whole store, with
    a span allowed half the budget instead of an eighth: the bounded
    scans' spans of several rows are admitted, merged, refreshed and
    evicted among the rows and the blocks."""

    options = OPTIONS.with_(block_cache_bytes=6 * 1024)

    @initialize()
    def open_store(self):
        self.span_share = blockcache.SPAN_SHARE
        blockcache.SPAN_SHARE = 0.5
        super().open_store()

    def teardown(self):
        try:
            super().teardown()
        finally:
            blockcache.SPAN_SHARE = self.span_share


class EngineWithoutACacheMatchesDict(EngineMatchesDict):
    """The plain machine with no cache: every get and scan reads the
    memtables and the runs, where a span would answer the repeats."""

    options = OPTIONS.with_(block_cache_bytes=0)


class EngineUnderLevelingMatchesDict(EngineMatchesDict):
    """The same machine under leveling, whose merges list the incoming
    run before the older resident it absorbs."""

    options = OPTIONS.with_(policy="leveling")


class EngineUnderLazyLevelingMatchesDict(EngineMatchesDict):
    """The same machine under lazy leveling: tiered levels over one
    leveled last level that each merge into it absorbs."""

    options = OPTIONS.with_(policy="lazy-leveling")


MACHINES = (
    EngineMatchesDict,
    EngineWithASmallCacheMatchesDict,
    EngineWithATinyCacheMatchesDict,
    EngineWithoutACacheMatchesDict,
    EngineUnderLevelingMatchesDict,
    EngineUnderLazyLevelingMatchesDict,
)
for machine in MACHINES:
    machine.TestCase.settings = settings(
        max_examples=15, stateful_step_count=30, deadline=None
    )
TestEngineMatchesDict = EngineMatchesDict.TestCase
TestEngineWithASmallCacheMatchesDict = (
    EngineWithASmallCacheMatchesDict.TestCase
)
TestEngineWithATinyCacheMatchesDict = EngineWithATinyCacheMatchesDict.TestCase
TestEngineWithoutACacheMatchesDict = EngineWithoutACacheMatchesDict.TestCase
TestEngineUnderLevelingMatchesDict = EngineUnderLevelingMatchesDict.TestCase
TestEngineUnderLazyLevelingMatchesDict = (
    EngineUnderLazyLevelingMatchesDict.TestCase
)
