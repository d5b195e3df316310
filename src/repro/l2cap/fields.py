"""Field taxonomy of the L2CAP packet frame (paper Fig. 6 and Table IV).

The core-field-mutating technique rests on partitioning every packet into

* ``F``  — fixed fields (the signaling Header CID, always 0x0001),
* ``D``  — dependent fields (lengths, code, identifier — derived values),
* ``MC`` — mutable *core* fields (port and channel settings: PSM + CIDP),
* ``MA`` — mutable *application* fields (everything else carried as data),

so that ``L = F ∪ D ∪ MC ∪ MA`` (paper §III.D). Only ``MC`` is mutated.

This module also encodes Table IV: the abnormal PSM ranges and the CIDP
range used as mutation value pools.
"""

from __future__ import annotations

import random

from repro.l2cap.constants import (
    ABNORMAL_PSM_RANGES,
    CIDP_MUTATION_RANGE,
    is_valid_psm,
)


#: The CIDP subset of MC — channel-endpoint fields (everything but PSM).
CIDP_FIELD_NAMES = frozenset({"scid", "dcid", "icid", "cont_id"})


# ---------------------------------------------------------------------------
# Table IV value pools
# ---------------------------------------------------------------------------


def random_abnormal_psm(rng: random.Random) -> int:
    """Draw one abnormal PSM (paper Table IV, ``random(abnormal)``).

    Half the draws come from the odd-MSB ranges and half from the even
    space, so both abnormality families are exercised evenly.
    """
    if rng.random() < 0.5:
        start, end = rng.choice(ABNORMAL_PSM_RANGES)
        value = rng.randrange(start, end + 1)
    else:
        value = rng.randrange(0x0000, 0x10000, 2)
    assert not is_valid_psm(value) or value % 2 == 0
    return value


def random_normal_cidp(rng: random.Random, field_size: int = 2) -> int:
    """Draw one CIDP value from the normal dynamic range (Table IV).

    CIDP values are drawn from 0x0040–0xFFFF — legal values that ignore
    the device's dynamic allocation (paper §III.D: "although the value is
    contained in the normal range, it can cause unexpected behavior ...
    due to ignoring dynamic allocation"). One-byte fields (CONT_ID) are
    drawn from their full 8-bit space instead.
    """
    if field_size == 1:
        return rng.randrange(0x00, 0x100)
    low, high = CIDP_MUTATION_RANGE
    return rng.randrange(low, high + 1)


def is_normal_cidp(value: int) -> bool:
    """True if *value* lies in the Table IV CIDP mutation range."""
    low, high = CIDP_MUTATION_RANGE
    return low <= value <= high
