"""From-scratch sparse matrix substrate.

The paper's MPI implementation stores the (features × samples) data matrix
``X`` in compressed sparse row format and relies on MKL sparse BLAS. This
package provides the equivalent substrate: COO / CSR / CSC formats built
directly on numpy with vectorized kernels (SpMV, SpMM, transpose-multiply,
sampled Gram matrices) and exact flop accounting for the α-β-γ performance
model.

scipy.sparse is intentionally *not* used here — it serves only as an
independent oracle in the test-suite.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix, CSCMatrix
from repro.sparse.ops import (
    GramWorkspace,
    sampled_gram,
    sampled_gram_blocks,
    sampled_rhs,
    packed_size,
    gram_flops,
    rhs_flops,
)
from repro.sparse.partition import ColumnPartition, partition_columns
from repro.sparse.io import load_libsvm, save_libsvm
from repro.sparse.random import random_csr, random_coo

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "GramWorkspace",
    "sampled_gram",
    "sampled_gram_blocks",
    "sampled_rhs",
    "packed_size",
    "gram_flops",
    "rhs_flops",
    "ColumnPartition",
    "partition_columns",
    "load_libsvm",
    "save_libsvm",
    "random_csr",
    "random_coo",
]
