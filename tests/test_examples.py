"""Example scripts: importable, and their core logic behaves.

The full scripts run in the tens of seconds; the tests exercise their
building blocks at reduced scale rather than re-running the mains.
"""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = ["quickstart", "tag_recommendation", "communication_analysis",
            "cluster_sizing", "rank_selection", "engine_tour",
            "reproduce_paper"]


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestImportable:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_imports_and_has_main(self, name):
        module = load_example(name)
        assert callable(module.main)


class TestTagRecommendation:
    def test_recommend_tags_scores(self):
        module = load_example("tag_recommendation")
        from repro.core.result import CPDecomposition
        users = np.array([[1.0, 0.0], [0.0, 1.0]])
        items = np.array([[1.0, 0.0]])
        tags = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        result = CPDecomposition(lambdas=np.ones(2),
                                 factors=[users, items, tags])
        top = module.recommend_tags(result, user=0, item=0, k=2)
        # user 0 aligns with component 0 -> tag 0 first
        assert top[0] == 0

    def test_beats_random_on_structured_tensor(self):
        """End-to-end at tiny scale: planted tag structure is ranked."""
        module = load_example("tag_recommendation")
        from repro import Context, CstfQCOO
        from repro.tensor import COOTensor, cp_reconstruct, random_factors
        planted = random_factors((10, 10, 12), 2, 3)
        dense = cp_reconstruct(np.ones(2), planted)
        tensor = COOTensor.from_dense(dense)
        with Context(num_nodes=2, default_parallelism=4) as ctx:
            result = CstfQCOO(ctx).decompose(tensor, 2,
                                             max_iterations=10, seed=0)
        top = module.recommend_tags(result, user=0, item=0, k=3)
        true_scores = dense[0, 0]
        assert true_scores[top[0]] >= np.sort(true_scores)[-3]
