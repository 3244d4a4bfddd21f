"""The ``top`` action."""

from __future__ import annotations


class TestLookupTop:
    def test_top(self, ctx):
        assert ctx.parallelize(range(100), 5).top(3) == [99, 98, 97]

    def test_top_with_key(self, ctx):
        out = ctx.parallelize([(1, 9), (2, 3)], 2).top(1,
                                                       key=lambda kv: kv[1])
        assert out == [(1, 9)]
