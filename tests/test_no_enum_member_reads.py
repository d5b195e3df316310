"""The packet path reads no enum member per frame.

Reading a member off an :class:`enum.Enum` subclass (``CommandCode.
COMMAND_REJECT``) goes through the enum metaclass's ``__getattr__``
path and costs about ten times a module global on CPython 3.11. The
functions below run once or more per frame, so the members they need
are bound to module constants at import. This scan fails if one of
them reads ``<EnumClass>.<MEMBER>`` again, with the class named
directly or through a module attribute. Calls such as
``CommandCode(value)`` and reads of a member's own attributes
(``member.value``) are not member reads.
"""

from __future__ import annotations

import ast
import enum
import importlib
import inspect
import textwrap

import pytest

#: ``(module, qualified function name)`` of every per-frame function.
PER_FRAME = (
    ("repro.l2cap.packets", "SignalTemplate.build"),
    ("repro.l2cap.packets", "command_reject"),
    ("repro.l2cap.validation", "structural_reject_reason"),
    ("repro.l2cap.validation", "is_malformed"),
    ("repro.core.mutation", "CoreFieldMutator.mutate_wire"),
    ("repro.stack.engine", "HostStackEngine.handle_l2cap"),
    ("repro.stack.engine", "HostStackEngine._unsolicited_response"),
    ("repro.stack.engine", "HostStackEngine._on_command_reject"),
    ("repro.stack.engine", "HostStackEngine._on_echo_req"),
    ("repro.stack.engine", "HostStackEngine._on_information_req"),
    ("repro.stack.engine", "HostStackEngine._on_le_family"),
    ("repro.core.detection", "VulnerabilityDetector.ping_test"),
    ("repro.analysis.sniffer", "is_rejection"),
    ("repro.analysis.sniffer", "PacketSniffer.observe_sent"),
    ("repro.analysis.sniffer", "PacketSniffer.observe_received"),
    ("repro.analysis.sniffer", "PacketSniffer._learn_from_received"),
)


def _resolve(node: ast.expr, namespace: dict):
    """The object a ``Name`` or dotted ``Attribute`` chain names in
    *namespace*, or None when it names nothing there."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, namespace)
        return None if owner is None else getattr(owner, node.attr, None)
    return None


def member_reads(source: str, namespace: dict) -> list[str]:
    """``EnumClass.MEMBER`` for every enum member read in *source*."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if not isinstance(node, ast.Attribute):
            continue
        owner = _resolve(node.value, namespace)
        if (
            isinstance(owner, type)
            and issubclass(owner, enum.Enum)
            and node.attr in owner.__members__
        ):
            found.append(f"{owner.__name__}.{node.attr}")
    return found


@pytest.mark.parametrize(
    "module_name, qualname", PER_FRAME, ids=[name for _, name in PER_FRAME]
)
def test_no_enum_member_read_per_frame(module_name, qualname):
    module = importlib.import_module(module_name)
    function = module
    for part in qualname.split("."):
        function = getattr(function, part)
    found = member_reads(inspect.getsource(function), vars(module))
    assert not found, (
        f"{module_name}.{qualname} reads {found}: bind the member to a"
        " module constant at import"
    )


def test_every_read_form_is_caught():
    from repro.l2cap import constants
    from repro.l2cap.constants import CommandCode, RejectReason

    namespace = {
        "CommandCode": CommandCode,
        "RejectReason": RejectReason,
        "constants": constants,
        "_COMMAND_REJECT": int(CommandCode.COMMAND_REJECT),
    }
    source = """
code == CommandCode.COMMAND_REJECT
reject(RejectReason.INVALID_CID)
constants.CommandCode.ECHO_RSP
code in (CommandCode.ECHO_RSP, _COMMAND_REJECT)
"""
    assert sorted(member_reads(source, namespace)) == [
        "CommandCode.COMMAND_REJECT",
        "CommandCode.ECHO_RSP",
        "CommandCode.ECHO_RSP",
        "RejectReason.INVALID_CID",
    ]


def test_constants_calls_and_member_attributes_pass():
    from repro.l2cap.constants import CommandCode

    namespace = {"CommandCode": CommandCode, "_ECHO": CommandCode.ECHO_REQ}
    source = """
code == _ECHO
CommandCode(code)
_ECHO.value
packet.code.name
CommandCode.__members__
"""
    assert member_reads(source, namespace) == []
