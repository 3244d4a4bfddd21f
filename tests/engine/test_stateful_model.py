"""Stateful property test: random RDD pipelines vs a list model.

Hypothesis drives random sequences of transformations over a live RDD
and a plain-Python mirror; after every step the RDD must collect to
exactly the mirror's contents.  Caching and shuffle-dropping are
interleaved to stress the scheduler's reuse/recompute paths.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.engine import Context

from ..strategies import examples


class RDDModelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ctx = Context(num_nodes=3, default_parallelism=4)
        self.rdd = None
        self.model: list = []

    @initialize(data=st.lists(st.integers(-20, 20), min_size=1,
                              max_size=30))
    def seed(self, data):
        self.model = list(data)
        self.rdd = self.ctx.parallelize(data, 4)

    @rule(k=st.integers(-5, 5))
    def map_add(self, k):
        self.rdd = self.rdd.map(lambda x, _k=k: x + _k)
        self.model = [x + k for x in self.model]

    @rule(m=st.integers(2, 5))
    def filter_mod(self, m):
        self.rdd = self.rdd.map_partitions(
            lambda it, _m=m: (x for x in it if x % _m != 0))
        self.model = [x for x in self.model if x % m != 0]

    @rule()
    def flat_map_duplicate(self):
        if len(self.model) > 200:
            return  # bound growth
        self.rdd = self.rdd.map_partitions(
            lambda it: (y for x in it for y in (x, -x)))
        self.model = [y for x in self.model for y in (x, -x)]

    @rule()
    def reduce_by_parity(self):
        """Wide op: replaces the dataset with per-parity sums."""
        keyed = self.rdd.map(lambda x: (x % 2, x))
        self.rdd = keyed.reduce_by_key(lambda a, b: a + b, 4)\
            .map(lambda kv: kv[1])
        sums: dict = defaultdict(int)
        for x in self.model:
            sums[x % 2] += x
        # ordering of reduce output is partition-determined; normalise
        # both sides at comparison time via the sorted invariant below
        self.model = list(sums.values())

    @rule()
    def cache_current(self):
        self.rdd = self.rdd.cache()

    @rule()
    def drop_shuffles(self):
        self.ctx.drop_shuffle_outputs()

    @invariant()
    def collect_matches_model(self):
        if self.rdd is None:
            return
        assert sorted(self.rdd.collect()) == sorted(self.model)

    def teardown(self):
        self.ctx.stop()


TestRDDModel = RDDModelMachine.TestCase
TestRDDModel.settings = settings(max_examples=examples(12),
                                 stateful_step_count=12,
                                 deadline=None)
