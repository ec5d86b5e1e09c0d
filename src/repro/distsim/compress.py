"""Lossy gradient compression for collectives v2 (SparCML, PAPERS.md).

Two compressors, both operating on the *contributions* entering an
allreduce (per rank on the flat topology, per node-leader partial on the
hierarchical one) and both pure host-side transforms — the reduction
itself still runs over dense float64 buffers, so every execution backend
that shares the compressed contributions computes bit-identical iterates:

* **top-k sparsification with error feedback** (``topk:frac=F``): keep
  the ``k = ⌈F·n⌉`` largest-magnitude entries of ``x + residual`` and
  carry the rest forward in a per-stream residual accumulator. Over
  rounds the residual telescopes — the sum of what was sent equals the
  sum of what was produced — which is the standard convergence argument
  for error-feedback compression (Stich et al.; SparCML §4).
* **stochastic-rounding quantization** (``quant:bits=B``): affine
  quantization onto a ``2^B``-step grid spanning ``[min(x), max(x)]``
  with stochastic rounding. The grid step is ``(max-min)·2^-B`` so the
  per-entry error is strictly below ``2^-B · range(x)``, and stochastic
  rounding makes the quantizer unbiased — no error feedback needed.

Determinism: top-k selection breaks magnitude ties by lowest index
(``np.lexsort``); quantization draws from a :class:`numpy.random.Generator`
seeded from ``(seed, crc32(label), stream, call#)`` so replays — including
checkpoint-rollback replays via :meth:`CompressorBank.snapshot` /
:meth:`~CompressorBank.restore` — reproduce the exact wire values.

Wire accounting lives in :mod:`repro.distsim.collectives`
(:func:`~repro.distsim.collectives.allreduce_charge`): a top-k payload is
charged in index+value encoding over its nnz; a quantized payload is
charged :func:`quant_payload_words` (packed ``B``-bit lanes plus the
two-word ``[lo, scale]`` header).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "CompressionSpec",
    "NO_COMPRESSION",
    "parse_compression_spec",
    "quant_payload_words",
    "CompressorBank",
]

#: Compression kinds a :class:`CompressionSpec` may carry.
COMPRESSION_KINDS = ("none", "topk", "quant")


@dataclass(frozen=True)
class CompressionSpec:
    """Parsed ``comm_compress`` setting.

    ``spec`` is the canonical string form — equal specs compare equal, so
    it doubles as a cache/fingerprint key component.
    """

    kind: str
    frac: float = 0.0
    bits: int = 0

    @property
    def enabled(self) -> bool:
        return self.kind != "none"

    @property
    def spec(self) -> str:
        if self.kind == "topk":
            return f"topk:frac={self.frac:g}"
        if self.kind == "quant":
            return f"quant:bits={self.bits}"
        return "none"


NO_COMPRESSION = CompressionSpec(kind="none")


def parse_compression_spec(spec: "str | CompressionSpec") -> CompressionSpec:
    """Parse ``"none" | "topk:frac=F" | "quant:bits=B"`` (with defaults)."""
    if isinstance(spec, CompressionSpec):
        return spec
    if not isinstance(spec, str):
        raise ValidationError(f"comm_compress must be a string, got {spec!r}")
    head, _, param = spec.partition(":")
    if head == "none":
        if param:
            raise ValidationError(f"'none' takes no parameters, got {spec!r}")
        return NO_COMPRESSION
    if head == "topk":
        frac = 0.1
        if param:
            key, _, value = param.partition("=")
            if key != "frac":
                raise ValidationError(f"topk takes frac=FLOAT, got {spec!r}")
            try:
                frac = float(value)
            except ValueError:
                raise ValidationError(f"topk frac must be a float, got {spec!r}") from None
        if not (0.0 < frac <= 1.0) or not math.isfinite(frac):
            raise ValidationError(f"topk frac must be in (0, 1], got {frac!r}")
        return CompressionSpec(kind="topk", frac=frac)
    if head == "quant":
        bits = 16
        if param:
            key, _, value = param.partition("=")
            if key != "bits":
                raise ValidationError(f"quant takes bits=INT, got {spec!r}")
            try:
                bits = int(value)
            except ValueError:
                raise ValidationError(f"quant bits must be an int, got {spec!r}") from None
        if not (1 <= bits <= 32):
            raise ValidationError(f"quant bits must be in [1, 32], got {bits}")
        return CompressionSpec(kind="quant", bits=bits)
    raise ValidationError(
        f"unknown comm_compress {spec!r}; expected none | topk:frac=F | quant:bits=B"
    )


def quant_payload_words(n: float, bits: int) -> float:
    """Wire size of *n* values quantized to *bits* bits each.

    Values pack into 64-bit words; the ``[lo, scale]`` dequantization
    header adds two words. Never charged above the dense size ``n``.
    """
    if n < 0:
        raise ValidationError(f"vector length must be >= 0, got {n}")
    if n == 0:
        return 0.0
    packed = 2.0 + math.ceil(float(n) * bits / 64.0)
    return min(packed, float(n))


class CompressorBank:
    """Per-backend compression state: error-feedback residuals + RNG streams.

    One bank lives on each execution substrate (the BSP cluster, which
    the mp backend shares, and the serial backend). Streams are
    identified by ``(label, stream)`` where *stream* is the contribution
    index (rank on the flat topology, node index for hierarchical leader
    partials); the residual key additionally carries the payload length
    so a label reused with different payload sizes keeps independent
    accumulators.
    """

    def __init__(self, spec: CompressionSpec, *, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)
        #: (label, stream, n) -> error-feedback residual (topk only)
        self._residuals: dict[tuple[str, int, int], np.ndarray] = {}
        #: (label, stream) -> quantization call count (quant only)
        self._calls: dict[tuple[str, int], int] = {}

    # -- compression ----------------------------------------------------- #
    def compress(self, x: np.ndarray, *, label: str, stream: int) -> np.ndarray:
        """Compress one contribution; returns a dense float64 array."""
        x = np.asarray(x, dtype=np.float64)
        if self.spec.kind == "topk":
            return self._topk(x, label=label, stream=stream)
        if self.spec.kind == "quant":
            return self._quant(x, label=label, stream=stream)
        return x

    def _topk(self, x: np.ndarray, *, label: str, stream: int) -> np.ndarray:
        n = x.size
        if n == 0:
            return x.copy()
        key = (label, int(stream), n)
        residual = self._residuals.get(key)
        acc = x + residual if residual is not None else x.astype(np.float64, copy=True)
        k = max(1, math.ceil(self.spec.frac * n))
        # Largest |acc| first; magnitude ties go to the lowest index so the
        # selection is deterministic across platforms.
        order = np.lexsort((np.arange(n), -np.abs(acc)))
        out = np.zeros_like(acc)
        sel = order[:k]
        out[sel] = acc[sel]
        self._residuals[key] = acc - out
        return out

    def _quant(self, x: np.ndarray, *, label: str, stream: int) -> np.ndarray:
        n = x.size
        if n == 0:
            return x.copy()
        ckey = (label, int(stream))
        call = self._calls.get(ckey, 0)
        self._calls[ckey] = call + 1
        lo = float(np.min(x))
        hi = float(np.max(x))
        if hi == lo:
            return x.astype(np.float64, copy=True)  # constant vector: exact
        scale = (hi - lo) * 2.0 ** (-self.spec.bits)
        q = (x - lo) / scale
        base = np.floor(q)
        rng = np.random.default_rng(
            (self.seed, zlib.crc32(label.encode("utf-8")), int(stream), call)
        )
        qi = base + (rng.random(n) < (q - base))
        return lo + qi * scale

    # -- telemetry / state ----------------------------------------------- #
    def residual_norm(self) -> float:
        """ℓ₂ norm of all error-feedback residuals (0 when none exist)."""
        if not self._residuals:
            return 0.0
        return float(
            math.sqrt(sum(float(np.dot(r, r)) for r in self._residuals.values()))
        )

    def snapshot(self) -> dict[str, Any]:
        """Deep-copied state for checkpoint/rollback bit-exact replay."""
        return {
            "residuals": {k: v.copy() for k, v in self._residuals.items()},
            "calls": dict(self._calls),
        }

    def restore(self, snap: dict[str, Any]) -> None:
        self._residuals = {k: v.copy() for k, v in snap["residuals"].items()}
        self._calls = dict(snap["calls"])
