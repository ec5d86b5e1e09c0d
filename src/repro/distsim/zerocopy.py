"""Zero-copy fan-out helpers for simulated collectives.

When every rank of a simulated collective receives the *same* value
(the SPMD engine's collective results), handing each rank its own deep
copy costs O(P * words) of real host time for data that is bit-identical
by construction.  Instead we fan out read-only views of a single buffer:
mutating one raises ``ValueError`` (numpy's write-protection), and a rank
that genuinely needs a private mutable buffer copies it.

The escape hatch ``REPRO_NO_DEDUP=1`` restores the historical deep-copy
behaviour everywhere (useful when bisecting a suspected aliasing bug).
Charged α-β-γ costs are not affected either way: cost accounting happens
before fan-out and models the *simulated* machine, not the host.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["NO_DEDUP_ENV", "dedup_enabled", "freeze"]

NO_DEDUP_ENV = "REPRO_NO_DEDUP"


def dedup_enabled(override: bool | None = None) -> bool:
    """Resolve whether zero-copy/dedup fast paths are active.

    An explicit ``override`` (from the ``SPMDEngine(dedup=)`` constructor)
    wins; otherwise the ``REPRO_NO_DEDUP`` environment
    variable disables the fast path when set to anything but ``""``/``"0"``.
    """
    if override is not None:
        return bool(override)
    return os.environ.get(NO_DEDUP_ENV, "0") in ("", "0")


def freeze(arr):
    """Return a read-only view of ``arr`` (non-ndarrays pass through).

    The original array's writeable flag is untouched — callers may hand
    us their own buffers (e.g. ``np.asarray`` round-trips), and freezing
    those in place would corrupt the sender's state.
    """
    if not isinstance(arr, np.ndarray):
        return arr
    view = arr.view()
    view.setflags(write=False)
    return view
