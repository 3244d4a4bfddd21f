"""Lifecycle auditor tests: leaked handles at teardown."""

from __future__ import annotations

import pytest

from repro.engine import Context
from repro.lint import LintError, LintSession, audit_context


def rules(report):
    return {f.rule for f in report}


def test_clean_context_audits_clean(ctx):
    bc = ctx.broadcast([1, 2, 3])
    rdd = ctx.parallelize(list(range(20)), 4).persist()
    assert rdd.count() == 20
    rdd.unpersist()
    bc.destroy()
    assert not audit_context(ctx)


def test_leaked_broadcast_reported():
    ctx = Context(num_nodes=2, default_parallelism=4)
    ctx.broadcast(list(range(100)))
    report = audit_context(ctx)
    assert rules(report) == {"leaked-broadcast"}
    [finding] = list(report)
    assert finding.severity == "error"
    ctx.stop()


def test_leaked_persisted_rdd_reported():
    ctx = Context(num_nodes=2, default_parallelism=4)
    rdd = ctx.parallelize(list(range(50)), 4).set_name("pinned")
    rdd.persist()
    rdd.count()  # materialize the cache
    report = audit_context(ctx)
    assert rules(report) == {"leaked-rdd-cache"}
    assert "pinned" in list(report)[0].message
    ctx.stop()


def test_persisted_but_never_materialized_is_not_a_leak():
    """persist() without an action caches nothing; nothing is pinned."""
    ctx = Context(num_nodes=2, default_parallelism=4)
    ctx.parallelize(list(range(50)), 4).persist()
    assert not audit_context(ctx)
    ctx.stop()


def test_unpersist_clears_the_ledger(ctx):
    rdd = ctx.parallelize(list(range(50)), 4).persist()
    rdd.count()
    assert audit_context(ctx)
    rdd.unpersist()
    assert not audit_context(ctx)


def test_live_persisted_introspection(ctx):
    rdd = ctx.parallelize(list(range(50)), 4).set_name("pinned")
    rdd.persist()
    rdd.count()
    [(rdd_id, name, nbytes)] = ctx.live_persisted()
    assert rdd_id == rdd.rdd_id
    assert name == "pinned"
    assert nbytes > 0
    rdd.unpersist()
    assert ctx.live_persisted() == []


def test_release_scope_frees_what_the_block_still_holds(ctx):
    """Scopes nest, leave handles that predate them alone, tolerate
    eager releases inside the block, and release on the way out of an
    exception without swallowing it."""
    outer_bc = ctx.broadcast([0])
    outer_rdd = ctx.parallelize(list(range(20)), 4).persist()
    outer_rdd.count()
    with pytest.raises(RuntimeError, match="mid-run"):
        with ctx.release_scope():
            kept = ctx.parallelize(list(range(30)), 4).persist()
            kept.count()
            with ctx.release_scope():
                inner = ctx.parallelize(list(range(40)), 4).persist()
                inner.count()
                inner_bc = ctx.broadcast([1])
            assert inner_bc.destroyed and inner.storage_level is None
            assert [r[0] for r in ctx.live_persisted()] == [
                outer_rdd.rdd_id, kept.rdd_id]
            eager = ctx.broadcast([2])
            eager.destroy()
            ctx.broadcast([3])
            raise RuntimeError("mid-run")
    assert ctx.live_broadcasts() == [outer_bc]
    assert [r[0] for r in ctx.live_persisted()] == [outer_rdd.rdd_id]
    outer_bc.destroy()
    outer_rdd.unpersist()
    assert not audit_context(ctx)


# ----------------------------------------------------------------------
# session integration: audit timing
# ----------------------------------------------------------------------
def test_session_audits_at_stop_before_cache_clears():
    with LintSession() as session:
        ctx = Context(num_nodes=2, default_parallelism=4)
        rdd = ctx.parallelize(list(range(30)), 2).persist()
        rdd.count()
        ctx.broadcast([1.0])
        ctx.stop()  # audit hook fires first, then the cache is wiped
    assert rules(session.report) == {"leaked-broadcast",
                                     "leaked-rdd-cache"}


def test_session_audits_never_stopped_context_at_exit():
    with LintSession() as session:
        ctx = Context(num_nodes=2, default_parallelism=4)
        ctx.broadcast([2.0])
        # the program under lint forgets ctx.stop() entirely
    assert rules(session.report) == {"leaked-broadcast"}
    ctx.stop()


def test_session_audits_each_context_once():
    with LintSession() as session:
        ctx = Context(num_nodes=2, default_parallelism=4)
        ctx.broadcast([3.0])
        ctx.stop()
        ctx.stop()  # idempotent stop must not double-audit
    assert len(session.report.by_rule("leaked-broadcast")) == 1


def test_strict_session_raises_at_exit():
    with pytest.raises(LintError) as excinfo:
        with LintSession(strict=True):
            ctx = Context(num_nodes=2, default_parallelism=4)
            ctx.broadcast([4.0])
            ctx.stop()
    assert any(f.rule == "leaked-broadcast"
               for f in excinfo.value.findings)


def test_strict_session_clean_exit():
    with LintSession(strict=True):
        ctx = Context(num_nodes=2, default_parallelism=4)
        bc = ctx.broadcast([5.0])
        bc.destroy()
        ctx.stop()


def test_strict_session_does_not_mask_program_exception():
    """A failing program's own exception wins over the strict raise."""
    with pytest.raises(ValueError, match="boom"):
        with LintSession(strict=True):
            ctx = Context(num_nodes=2, default_parallelism=4)
            ctx.broadcast([6.0])
            raise ValueError("boom")
    ctx.stop()


def test_audit_now_prevents_stop_time_duplicate():
    with LintSession() as session:
        ctx = Context(num_nodes=2, default_parallelism=4)
        ctx.broadcast([7.0])
        fresh = session.audit_now(ctx)
        assert rules(fresh) == {"leaked-broadcast"}
        ctx.stop()
    assert len(session.report.by_rule("leaked-broadcast")) == 1
