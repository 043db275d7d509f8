"""The layer taxonomy: which public seam is charged to which layer.

Layer names follow the program's modules.  Each seam is the name that
callers resolve at call time: the encoders import ``run_search`` and
``refine_subpel`` by name, the codecs reach kernels through the
``SimdKernels``/``ScalarKernels`` class attributes, and the origin
session imports the transport stages by name.  See ``LAYERS.md`` for
which end-to-end figure each layer is expected to move.
"""

from __future__ import annotations

from typing import List

from tracer import Seam

#: Kernel name -> layer.  ``sub``/``add_clip`` (residual formation and
#: reconstruction) sit with the transform and quantisers; block fetch and
#: bi-prediction averaging sit with interpolation, as motion compensation.
KERNEL_GROUPS = {
    "kernels.cost": ("sad", "ssd", "satd4"),
    "kernels.transform": (
        "sub", "add_clip",
        "fdct8", "idct8", "fwd_transform4", "inv_transform4",
        "hadamard4_forward", "hadamard4_inverse", "hadamard2",
        "quant_mpeg", "dequant_mpeg", "quant_matrix", "dequant_matrix",
        "quant_h263", "dequant_h263", "quant_h264_4x4", "dequant_h264_4x4",
        "quant_h264_dc4", "dequant_h264_dc4", "quant_h264_dc2", "dequant_h264_dc2",
    ),
    "kernels.interp": (
        "get_block", "average", "mc_halfpel", "mc_qpel_bilinear",
        "mc_qpel_h264", "mc_chroma_bilinear8",
    ),
    "kernels.deblock": ("deblock_normal", "deblock_strong"),
}


def seams() -> List[Seam]:
    """Every patch point, grouped by layer."""
    from repro.codecs.base import VideoDecoder
    from repro.codecs.h264 import decoder as h264_dec, encoder as h264_enc
    from repro.codecs.h264.cavlc import CavlcCoder
    from repro.codecs.h264.deblock import DeblockFilter
    from repro.codecs.huffman import VlcTable
    from repro.codecs.mpeg2 import decoder as mpeg2_dec, encoder as mpeg2_enc
    from repro.codecs.mpeg4 import decoder as mpeg4_dec, encoder as mpeg4_enc
    from repro.kernels.api import KERNEL_NAMES
    from repro.kernels.scalar import ScalarKernels
    from repro.kernels.simd import SimdKernels
    from repro.observe.store import HistoryStore
    from repro.orchestrate.artifacts import ArtifactCache
    from repro.origin import session as origin_session
    from repro.sequences.base import SequenceGenerator
    from repro.transport import receiver
    from repro.transport.channel import LossyChannel

    grouped = {name for names in KERNEL_GROUPS.values() for name in names}
    missing = set(KERNEL_NAMES) - grouped
    if missing:
        raise RuntimeError(f"kernels without a layer: {sorted(missing)}")

    out: List[Seam] = []
    for backend in (SimdKernels, ScalarKernels):
        for layer, names in KERNEL_GROUPS.items():
            out.extend(Seam(backend, name, layer) for name in names)

    encoders = (mpeg2_enc, mpeg4_enc, h264_enc)
    for module in encoders:
        out.append(Seam(module, "run_search", "me.search",
                        nested_group="kernels.cost"))
        out.append(Seam(module, "refine_subpel", "me.subpel",
                        nested_group="kernels.interp"))
        out.append(Seam(module, "write_se", "entropy", bit_arg=0))
    out.append(Seam(h264_enc, "write_ue", "entropy", bit_arg=0))
    out.append(Seam(mpeg2_enc, "encode_run_level", "entropy", bit_arg=0))
    out.append(Seam(mpeg4_enc, "encode_3d", "entropy", bit_arg=0))
    for module in (mpeg2_dec, mpeg4_dec, h264_dec):
        out.append(Seam(module, "read_se", "entropy", bit_arg=0))
    out.append(Seam(h264_dec, "read_ue", "entropy", bit_arg=0))
    out.append(Seam(mpeg2_dec, "decode_run_level", "entropy", bit_arg=0))
    out.append(Seam(mpeg4_dec, "decode_3d", "entropy", bit_arg=0))
    out.append(Seam(VlcTable, "read", "entropy", bit_arg=1))
    out.append(Seam(VlcTable, "write", "entropy", bit_arg=1))
    out.append(Seam(CavlcCoder, "decode_block", "entropy", bit_arg=1,
                    counter="codecs.h264.cavlc"))
    out.append(Seam(CavlcCoder, "encode_block", "entropy", bit_arg=1,
                    counter="codecs.h264.cavlc"))

    out.append(Seam(DeblockFilter, "apply", "codecs.h264.deblock"))
    for encoder_class in (mpeg2_enc.Mpeg2Encoder, mpeg4_enc.Mpeg4Encoder,
                          h264_enc.H264Encoder):
        out.append(Seam(encoder_class, "encode_sequence", "codecs.control"))
    out.append(Seam(VideoDecoder, "decode", "codecs.control"))
    out.append(Seam(SequenceGenerator, "generate", "sequences"))

    out.append(Seam(origin_session, "packetize", "transport.packetize"))
    out.append(Seam(origin_session, "fec_encode", "transport.fec"))
    out.append(Seam(receiver, "fec_decode", "transport.fec"))
    out.append(Seam(LossyChannel, "transmit", "transport.channel"))
    out.append(Seam(origin_session, "receive", "transport.receive"))
    out.append(Seam(receiver, "decode_stream", "robustness.decode_stream"))

    out.append(Seam(ArtifactCache, "get", "orchestrate.artifacts.get"))
    out.append(Seam(ArtifactCache, "_commit", "orchestrate.artifacts.commit"))
    out.append(Seam(HistoryStore, "append", "observe.store.append"))
    out.append(Seam(HistoryStore, "query", "observe.store.query"))
    return out
