"""Drive a bare :class:`CompactionManager` — no store, no executor, no
lock — through the claim/publish calls ``MaintenanceExecutor._run``
makes, for tests of the manager on its own."""


def flush(manager, items, entry_hint):
    """Write ``items`` out as a new level-0 run."""
    run_id, writer = manager.begin_flush(entry_hint)
    writer.add_many(items)
    manager.publish_flush(run_id, writer.finish())


def step(manager):
    """Advance the scheduler-chosen merge by one chunk; False when idle."""
    job = manager.claim_merge()
    if job is None:
        return False
    manager.release_merge(job, job.advance(manager.chunk_bytes))
    return True


def drain(manager):
    """Run merges until none remain; returns the chunks taken."""
    steps = 0
    manager.kick()
    while manager.has_work() and step(manager):
        steps += 1
        assert steps < 1_000_000
    return steps
