"""In-place k-way perfect shuffles and two-round swap factorizations."""

from .involution_factor import (
    InvolutionPair,
    factor_permutation,
)
from .network import (
    SwapNetwork,
    apply_network,
    build_network,
    emit_dot,
    emit_text,
    network_permutation,
    parse_text,
)
from .oracle import (
    inshuffle_permutation,
    oracle_apply,
    oracle_shuffle,
)
from .perm_core import (
    Involution,
    OpCounter,
    Permutation,
    cycle_decompose,
    cycle_notation,
    is_involution,
)
from .shuffle_bitrev import (
    RotationPlan,
    ShuffleSpec,
    rotate_left,
    rotation_cost,
    rotation_plan,
    revswap_round,
    shuffle_general_k2,
    shuffle_power,
    swap_counts,
)
from .shuffle_modinv import (
    ext_gcd,
    j_map,
    shuffle_modinv,
    swap_count_modinv,
)

__version__ = "0.1.0"

__all__ = [
    "Involution",
    "InvolutionPair",
    "OpCounter",
    "Permutation",
    "RotationPlan",
    "ShuffleSpec",
    "SwapNetwork",
    "apply_network",
    "build_network",
    "cycle_decompose",
    "cycle_notation",
    "emit_dot",
    "emit_text",
    "ext_gcd",
    "factor_permutation",
    "inshuffle_permutation",
    "is_involution",
    "j_map",
    "network_permutation",
    "oracle_apply",
    "oracle_shuffle",
    "parse_text",
    "revswap_round",
    "rotate_left",
    "rotation_cost",
    "rotation_plan",
    "shuffle_general_k2",
    "shuffle_modinv",
    "shuffle_power",
    "swap_count_modinv",
    "swap_counts",
]
