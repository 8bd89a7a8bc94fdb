"""Exact chip-firing on infinite k-ary trees with a self-loop at the root.

A pile of N chips at the root topples to a unique stable configuration; this
package computes the outcome three independent ways (brute-force simulation,
closed forms, recursions), generates the integer sequences the fire counts
produce, and digs out the schizophrenic-number digit patterns hiding in
their difference values.  All arithmetic is exact.
"""

from .engine import simulate, simulate_layers
from .formulas import (
    D_diff,
    a_seq,
    b_seq,
    d0,
    divisibility_check,
    fire_profile,
    root_fires,
    root_fires_rec,
    special_root_fires,
    special_total_fires,
    special_vertex_fires,
    total_fires,
    total_fires_rec,
    vertex_fires,
    vertex_fires_via_root,
)
from .numerics import (
    DigitString,
    SimResult,
    height_index,
    nu,
    repunit,
    stable_config,
    to_base,
)
from .schizo import (
    BlockReport,
    DigitDump,
    block_report,
    inv_sqrt_digits,
    schizo_survey,
    sqrt_digits,
)
from .sequences import (
    SequenceId,
    SequenceWindow,
    difference,
    emit_bfile,
    generate,
    reference_fixtures,
)

__version__ = "0.1.0"

__all__ = [
    "BlockReport",
    "D_diff",
    "DigitDump",
    "DigitString",
    "SequenceId",
    "SequenceWindow",
    "SimResult",
    "a_seq",
    "b_seq",
    "block_report",
    "d0",
    "difference",
    "divisibility_check",
    "emit_bfile",
    "fire_profile",
    "generate",
    "height_index",
    "inv_sqrt_digits",
    "nu",
    "reference_fixtures",
    "repunit",
    "root_fires",
    "root_fires_rec",
    "schizo_survey",
    "simulate",
    "simulate_layers",
    "special_root_fires",
    "special_total_fires",
    "special_vertex_fires",
    "sqrt_digits",
    "stable_config",
    "to_base",
    "total_fires",
    "total_fires_rec",
    "vertex_fires",
    "vertex_fires_via_root",
]
