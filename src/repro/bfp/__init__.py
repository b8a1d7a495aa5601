"""Block Floating Point substrate (shared-exponent integer groups)."""

from .format import BFPBlock, BFPConfig, decode_groups, encode_groups, quantize_tensor
from .gemm import bfp_encode_matrix, bfp_matmul_exact

__all__ = [
    "BFPConfig",
    "BFPBlock",
    "encode_groups",
    "decode_groups",
    "quantize_tensor",
    "bfp_encode_matrix",
    "bfp_matmul_exact",
]
