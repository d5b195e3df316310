"""Protocol fuzz targets: one campaign engine, many protocols.

Importing this package registers the four built-in targets (l2cap,
rfcomm, sdp, obex). :func:`make_target` builds one by name;
:func:`target_names` lists the registry for CLI choices and fleets.
"""

from repro.targets.base import (
    FuzzTarget,
    GuidedPosition,
    REQUIRED_HOOKS,
    TargetGuide,
    TargetMutator,
    TargetRegistrationError,
    make_target,
    register_target,
    target_names,
)
# Import order is registration order is presentation order.
from repro.targets.l2cap import L2capTarget
from repro.targets.rfcomm import RfcommMuxState, RfcommTarget
from repro.targets.sdp import SdpSessionState, SdpTarget
from repro.targets.obex import OBEX_PSM, ObexSessionState, ObexTarget

#: Registered target names, in presentation order.
TARGET_NAMES: tuple[str, ...] = target_names()

__all__ = [
    "FuzzTarget",
    "GuidedPosition",
    "L2capTarget",
    "OBEX_PSM",
    "ObexSessionState",
    "ObexTarget",
    "REQUIRED_HOOKS",
    "RfcommMuxState",
    "RfcommTarget",
    "SdpSessionState",
    "SdpTarget",
    "TARGET_NAMES",
    "TargetGuide",
    "TargetMutator",
    "TargetRegistrationError",
    "make_target",
    "register_target",
    "target_names",
]
