"""Tests for reconciling merge iterators."""

from hypothesis import given, settings, strategies as st

from repro.engine import TOMBSTONE, reconciling_iterator


class TestReconcilingIterator:
    def test_newest_wins(self):
        newest = iter([(b"a", b"new")])
        oldest = iter([(b"a", b"old"), (b"b", b"keep")])
        merged = list(reconciling_iterator([newest, oldest]))
        assert merged == [(b"a", b"new"), (b"b", b"keep")]

    def test_tombstone_hides_older_versions(self):
        newest = iter([(b"a", TOMBSTONE)])
        oldest = iter([(b"a", b"old"), (b"b", b"v")])
        merged = list(reconciling_iterator([newest, oldest]))
        assert merged == [(b"b", b"v")]

    def test_keep_tombstones_mode(self):
        newest = iter([(b"a", TOMBSTONE)])
        oldest = iter([(b"a", b"old")])
        merged = list(
            reconciling_iterator([newest, oldest], keep_tombstones=True)
        )
        assert merged == [(b"a", TOMBSTONE)]

    def test_three_way_interleave(self):
        s1 = iter([(b"b", b"1b"), (b"e", b"1e")])
        s2 = iter([(b"a", b"2a"), (b"e", b"2e")])
        s3 = iter([(b"c", b"3c")])
        merged = list(reconciling_iterator([s1, s2, s3]))
        assert merged == [
            (b"a", b"2a"),
            (b"b", b"1b"),
            (b"c", b"3c"),
            (b"e", b"1e"),  # s1 is newer than s2
        ]

    def test_empty_sources(self):
        assert list(reconciling_iterator([iter([]), iter([])])) == []
        assert list(reconciling_iterator([])) == []

    @given(
        st.lists(
            st.dictionaries(
                st.binary(min_size=1, max_size=8),
                st.one_of(st.none(), st.binary(max_size=16)),
                max_size=30,
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_overlay_semantics(self, components):
        """Overlaying dicts oldest-to-newest must equal reconciliation."""
        reference: dict[bytes, bytes | None] = {}
        for component in reversed(components):  # oldest first
            reference.update(component)
        expected = sorted(
            (k, v) for k, v in reference.items() if v is not TOMBSTONE
        )
        sources = [iter(sorted(c.items())) for c in components]
        merged = list(reconciling_iterator(sources))
        assert merged == expected
