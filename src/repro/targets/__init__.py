"""Protocol fuzz targets: one campaign engine, many protocols.

The four built-in targets (l2cap, rfcomm, sdp, obex) load on their
first :func:`make_target`, so a campaign imports only the protocol it
fuzzes. :func:`target_names` lists them, then any target registered
with :func:`register_target`, without loading any of them.
"""

from repro.targets.base import (
    FuzzTarget,
    GuidedPosition,
    TargetRegistrationError,
    make_target,
    register_target,
    target_names,
)

#: Built-in target names, in presentation order.
TARGET_NAMES: tuple[str, ...] = target_names()

__all__ = [
    "FuzzTarget",
    "GuidedPosition",
    "TARGET_NAMES",
    "TargetRegistrationError",
    "make_target",
    "register_target",
    "target_names",
]
