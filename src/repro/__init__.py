"""CSTF reproduction: large-scale sparse tensor factorizations on
(simulated) distributed platforms.

Reproduces Blanco, Liu & Mehri Dehnavi, *CSTF: Large-Scale Sparse Tensor
Factorizations on Distributed Platforms* (ICPP 2018): the CSTF-COO and
CSTF-QCOO distributed CP-ALS algorithms, the BIGtensor baseline they are
evaluated against, a Spark-semantics dataflow engine to run them on, and
the full experiment harness for the paper's tables and figures.

Top-level convenience exports cover the common path::

    from repro import Context, CstfQCOO, make_dataset

    tensor = make_dataset("nell1", target_nnz=5000)
    with Context(num_nodes=8) as ctx:
        result = CstfQCOO(ctx).decompose(tensor, rank=2)
    print(result.final_fit)

The exports and subpackages (``repro.core``, …) resolve on first use
(PEP 562): ``import repro`` alone imports none of them, so a pool worker
loads only ``repro.engine`` and ``repro.kernels``, and no scipy.
"""

import importlib as _importlib

__version__ = "1.0.0"

#: export name -> the subpackage it is imported from on first access
_EXPORTS = {name: package for package, names in {
    "engine": "Context HashPartitioner StorageLevel",
    "core": "CPDecomposition CstfCOO CstfQCOO",
    "baselines": "BigtensorCP local_cp_als",
    "tensor": "COOTensor cp_fit khatri_rao low_rank_sparse mttkrp read_tns"
              " uniform_sparse write_tns zipf_sparse",
    "datasets": "DATASETS make_dataset",
}.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS.values(), "analysis", "api", "cli", "kernels", "lint"}

__all__ = [
    "BigtensorCP", "COOTensor", "Context", "CPDecomposition", "CstfCOO",
    "CstfQCOO", "DATASETS", "HashPartitioner", "StorageLevel", "cp_fit",
    "khatri_rao", "local_cp_als", "low_rank_sparse", "make_dataset",
    "mttkrp", "read_tns", "uniform_sparse", "write_tns", "zipf_sparse",
    "__version__",
]


def __getattr__(name: str):
    """Import an export's subpackage, or a subpackage, on first use."""
    if name in _EXPORTS:
        module = _importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    if name in _SUBMODULES:
        return _importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
