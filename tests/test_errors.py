"""Sanity tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "SimulationError",
            "SchedulerError",
            "PolicyError",
            "StorageError",
            "CorruptionError",
            "ClosedError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_storage_branch(self):
        for name in ("CorruptionError", "ClosedError"):
            assert issubclass(getattr(errors, name), errors.StorageError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.CorruptionError("bad block")
