"""Crash artefacts: tombstones and crash dumps (paper Fig. 12).

When an injected bug fires, the virtual stack produces a
:class:`CrashReport` describing the failure the way the paper observed
it: Android stacks emit a *tombstone* naming ``l2c_csm_execute`` and the
``t_l2c_ccb`` channel control block, BlueZ emits a kernel-style general
protection fault dump, and RTKit devices simply vanish. The report also
fixes which transport error the fuzzer sees afterwards, which is what the
detection phase classifies (DoS vs crash).
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import (
    ConnectionFailedError,
    ConnectionResetTargetError,
    TargetTimeoutError,
    TransportError,
)


class CrashKind(enum.Enum):
    """Failure modes observed in the paper's Table VI."""

    #: Bluetooth service shut down — "Connection Failed" — a DoS.
    DOS = "DoS"
    #: Process/device crash with uncontrolled termination.
    CRASH = "Crash"


class DumpKind(enum.Enum):
    """Crash-dump artefact styles per stack family."""

    TOMBSTONE = "tombstone"  # Android / BlueDroid
    KERNEL_OOPS = "kernel_oops"  # Linux / BlueZ
    NONE = "none"  # devices that die silently (RTKit earbuds)


_CRASH_ERRORS: dict[CrashKind, type[TransportError]] = {
    CrashKind.DOS: ConnectionFailedError,
    CrashKind.CRASH: ConnectionResetTargetError,
}


@dataclasses.dataclass(frozen=True)
class CrashReport:
    """Everything a triggered bug discloses.

    :param vulnerability_id: identifier of the injected bug model.
    :param kind: DoS or crash (drives the fuzzer-visible error).
    :param dump_kind: which artefact the device leaves behind.
    :param summary: one-line cause ("null pointer dereference", ...).
    :param function: the stack function the fault is attributed to.
    :param fault_address: faulting address (0x20 for the paper's
        null-deref: a member access off a NULL ``t_l2c_ccb``).
    :param trigger_description: the packet that pulled the trigger —
        the root-cause hint the paper lists as future work.
    :param sim_time: simulated timestamp of the crash.
    :param silent: device dies without any reset/abort signalling; the
        fuzzer observes a timeout instead of a reset.
    """

    vulnerability_id: str
    kind: CrashKind
    dump_kind: DumpKind
    summary: str
    function: str
    fault_address: int
    trigger_description: str
    sim_time: float = 0.0
    silent: bool = False

    @property
    def transport_error(self) -> type[TransportError]:
        """Error class the fuzzer's socket operations raise afterwards."""
        if self.silent:
            return TargetTimeoutError
        return _CRASH_ERRORS[self.kind]

    @property
    def leaves_dump(self) -> bool:
        """True when a crash-dump artefact is generated."""
        return self.dump_kind is not DumpKind.NONE

    def render_dump(self, device_name: str = "device", build: str = "unknown") -> str:
        """Render the crash-dump text artefact.

        Tombstones follow the layout of paper Fig. 12; kernel oopses
        follow the classic general-protection-fault trace of dmesg.
        """
        if self.dump_kind is DumpKind.TOMBSTONE:
            return self._render_tombstone(build)
        if self.dump_kind is DumpKind.KERNEL_OOPS:
            return self._render_kernel_oops(device_name)
        return ""

    def _render_tombstone(self, build: str) -> str:
        stars = "*** " * 16
        return (
            f"{stars.strip()}\n"
            f"Build fingerprint: '{build}'\n"
            "Revision: 'MP1.0'\n"
            "ABI: 'arm64'\n"
            f"Timestamp: {self.sim_time:.3f} (simulated)\n"
            "pid: 1948, tid: 2946, name: bt_main_thread "
            ">>> com.android.bluetooth <<<\n"
            "uid: 1002\n"
            "signal 11 (SIGSEGV), code 1 (SEGV_MAPERR), "
            f"fault addr 0x{self.fault_address:x}\n"
            f"Cause: {self.summary}\n"
            "backtrace:\n"
            f"      #00 pc 0000000000378da0  /system/lib64/libbluetooth.so "
            f"({self.function}+3748)\n"
            f"Trigger: {self.trigger_description}\n"
        )

    def _render_kernel_oops(self, device_name: str) -> str:
        return (
            f"{device_name} kernel: general protection fault: 0000 [#1] SMP PTI\n"
            f"{device_name} kernel: RIP: 0010:{self.function}+0x1f4/0x520 [bluetooth]\n"
            f"{device_name} kernel: Call Trace:\n"
            f"{device_name} kernel:  l2cap_recv_frame+0xa51/0x1370 [bluetooth]\n"
            f"{device_name} kernel:  hci_rx_work+0x1a3/0x3e0 [bluetooth]\n"
            f"{device_name} kernel: Cause: {self.summary}\n"
            f"{device_name} kernel: Trigger: {self.trigger_description}\n"
        )
