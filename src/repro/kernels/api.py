"""The kernel backend interface.

The paper benchmarks each codec twice: a *scalar* build (plain C) and a
*SIMD* build where the hot kernels — SAD/SATD, DCT/IDCT, quantisation,
sub-pel interpolation, deblocking — are rewritten with data-parallel
instructions (Section VI).  This library reproduces that axis with two
interchangeable kernel backends:

* ``scalar`` (:class:`repro.kernels.scalar.ScalarKernels`) — pure-Python
  integer loops, the analogue of the plain C build;
* ``simd`` (:class:`repro.kernels.simd.SimdKernels`) — NumPy-vectorised
  versions of the same integer algorithms, the analogue of the SIMD build.

Both backends are **bit-exact** against each other: every kernel is defined
in integer arithmetic only, so the choice of backend changes throughput but
never output (verified by property tests).  The codecs obtain a backend via
:func:`repro.kernels.get_kernels` and route every per-block hot operation
through it; the macroblock control flow above the kernels stays plain
Python in both builds, mirroring how SIMD optimisation of real codecs only
touches leaf kernels (which is why the paper's speed-ups are ~2x, not 10x).

Three parts of the contract go beyond one block per call:

* **Stacked candidates in** ``sad``.  ``sad(a, b)`` with ``b`` of shape
  ``(h, w)`` returns one ``int``; with ``b`` of shape ``(n, h, w)`` (``n``
  candidate blocks stacked along a leading axis) it returns the list of
  the ``n`` costs, each equal to ``sad(a, b[i])``.  Motion search scores
  a whole search pattern with one call (:meth:`repro.me.cost.MotionCost.
  evaluate_many`, :func:`repro.me.subpel.refine_subpel`); the scalar
  backend loops over the candidates, so it stays the bit-exact reference.
* **Stacked blocks in the inverse path.** ``dequant_mpeg``,
  ``dequant_h263``, ``dequant_h264_4x4``, ``idct8`` and ``inv_transform4``
  accept blocks of shape ``(n, h, w)`` and return ``(n, h, w)``; slice
  ``i`` equals the call on block ``i`` alone, and the intra DC scaling
  applies to every block's ``[0, 0]`` term.  :mod:`repro.codecs.recon`
  rebuilds a whole macroblock's residual with one dequant and one
  inverse-transform call this way, in every encoder and decoder.  The
  SIMD backend broadcasts; the scalar backend loops block by block, so it
  stays the bit-exact reference and does the same per-block work as
  before.  Callers therefore stack only *coded* blocks: stacking zero
  blocks would add scalar work that the per-block code never did.
* **Whole planes in** ``mc_qpel_h264``.  The kernel accepts any block
  size, including a whole padded plane.  The H.264 encoder builds its
  three half-pel planes once per reference picture that way and reads
  every quarter-pel prediction from them (:mod:`repro.mc.pad`).

``KERNEL_NAMES`` is frozen: the optimisations above reuse existing
kernels instead of adding entry points.  Lint rule HDVB120 requires the
public methods of both backends to equal this tuple exactly, and the
benchmark's layer taxonomy assigns every name to a layer and refuses a
kernel it cannot place, so a new name would have to be added to both
backends, the dispatch table and every consumer of the taxonomy at once.

This module documents the interface; see the scalar backend for reference
semantics of each kernel.
"""

from __future__ import annotations

KERNEL_NAMES = (
    # cost
    "sad",
    "ssd",
    "satd4",
    # block arithmetic
    "sub",
    "add_clip",
    "average",
    # 8x8 DCT family (MPEG-2 / MPEG-4)
    "fdct8",
    "idct8",
    # H.264 4x4 integer transform family
    "fwd_transform4",
    "inv_transform4",
    "hadamard4_forward",
    "hadamard4_inverse",
    "hadamard2",
    # quantisers
    "quant_mpeg",
    "dequant_mpeg",
    "quant_matrix",
    "dequant_matrix",
    "quant_h263",
    "dequant_h263",
    "quant_h264_4x4",
    "dequant_h264_4x4",
    "quant_h264_dc4",
    "dequant_h264_dc4",
    "quant_h264_dc2",
    "dequant_h264_dc2",
    # motion compensation / interpolation
    "get_block",
    "mc_halfpel",
    "mc_qpel_bilinear",
    "mc_qpel_h264",
    "mc_chroma_bilinear8",
    # H.264 in-loop deblocking
    "deblock_normal",
    "deblock_strong",
)


def implements_kernel_api(backend: object) -> bool:
    """True when ``backend`` provides every kernel entry point."""
    return all(callable(getattr(backend, name, None)) for name in KERNEL_NAMES)
