"""Residue Number System substrate.

Public surface: moduli sets (:class:`ModuliSet`, :func:`special_moduli_set`),
forward/reverse conversions, modular tensor arithmetic (:class:`RnsTensor`)
and the redundant-RNS codec (:class:`RRNSCodec`).
"""

from .arithmetic import (
    RnsTensor,
    mod_add,
    mod_matmul,
    mod_mul,
    mod_neg,
    mod_sub,
)
from .conversion import (
    crt_reverse,
    crt_reverse_signed,
    forward_convert,
    forward_convert_signed,
    from_signed,
    mixed_radix_digits,
    mixed_radix_reverse,
    special_set_forward,
    special_set_reverse,
    to_signed,
)
from .moduli import (
    ModuliSet,
    choose_k_min,
    pairwise_coprime,
    required_output_bits,
    special_moduli_set,
)
from .moduli_search import (
    SearchPoint,
    greedy_coprime_set,
    minimal_max_modulus_set,
    search_moduli_sets,
    set_cost_summary,
)
from .base_extension import (
    approx_base_extend,
    approx_crt_rank,
    extension_op_counts,
    mrc_base_extend,
    sk_base_extend,
)
from .nonlinear import (
    FixedPointCodec,
    lsq_coefficients,
    rns_polynomial,
    rns_relu,
)
from .rrns import DecodeResult, RRNSCodec
from .scaling import (
    approximate_scale,
    exact_power_of_two_scale,
    mrc_compare,
    mrc_sign,
    scale_by_modulus,
)

__all__ = [
    "ModuliSet",
    "special_moduli_set",
    "choose_k_min",
    "required_output_bits",
    "pairwise_coprime",
    "forward_convert",
    "forward_convert_signed",
    "special_set_forward",
    "crt_reverse",
    "crt_reverse_signed",
    "mixed_radix_digits",
    "mixed_radix_reverse",
    "special_set_reverse",
    "to_signed",
    "from_signed",
    "RnsTensor",
    "mod_add",
    "mod_sub",
    "mod_neg",
    "mod_mul",
    "mod_matmul",
    "RRNSCodec",
    "DecodeResult",
    "mrc_compare",
    "mrc_sign",
    "scale_by_modulus",
    "approximate_scale",
    "exact_power_of_two_scale",
    "mrc_base_extend",
    "sk_base_extend",
    "approx_base_extend",
    "approx_crt_rank",
    "extension_op_counts",
    "FixedPointCodec",
    "rns_polynomial",
    "rns_relu",
    "lsq_coefficients",
    "SearchPoint",
    "greedy_coprime_set",
    "minimal_max_modulus_set",
    "search_moduli_sets",
    "set_cost_summary",
]
