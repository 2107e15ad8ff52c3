"""Runtime error type and the error codes shared by the engine and network layers."""

from __future__ import annotations

# Transport / reachability
E_HOST_UNREACHABLE = "HostUnreachable"
E_TIMEOUT = "Timeout"
E_CONNECT_REFUSED = "ConnectRefused"
E_NAME_COLLISION = "NameCollision"
E_HANDSHAKE_TIMEOUT = "HandshakeTimeout"
E_HOP_UNREACHABLE = "HopUnreachable"

# Security
E_ACCESS_DENIED = "AccessDenied"

# Code transfer
E_UNKNOWN_CLASS = "UnknownClass"
E_PACK_NOT_FOUND = "PackNotFoundAtOrigin"
E_HASH_MISMATCH = "HashMismatch"

# Execution faults (wrapped as RemoteException when they cross an invocation)
E_REMOTE = "RemoteException"
E_NULL_REF = "NullReference"
E_ARITHMETIC = "ArithmeticFault"
E_INDEX = "IndexFault"
E_ACCESS_VIOLATION = "AccessViolation"
E_UNKNOWN_OBJECT = "UnknownObject"
E_UNKNOWN_METHOD = "UnknownMethod"
E_NON_COPYABLE = "NonCopyableValue"
E_STACK_OVERFLOW = "StackOverflow"

# Queues and events
E_UNKNOWN_EVENT = "UnknownEvent"
E_SLOT_FILLED = "SlotAlreadyFilled"
E_SLOT_RANGE = "SlotOutOfRange"

# Intrinsics
E_BAD_DIMENSION = "BadDimension"
E_EXEC_FAILED = "ExecFailed"
E_HANDLE_CLOSED = "HandleClosed"

# Program entry
E_NO_MAIN = "NoMainFound"
E_PARTIAL_FAILURE = "PartialFailure"


class EngineError(Exception):
    """A fault with a stable machine-readable code.

    `remote_code` carries the callee-side code when this error is a
    RemoteException wrapper; `failures` carries (host, code) pairs for
    PartialFailure raised by group traversals.
    """

    def __init__(self, code: str, message: str = "", *, remote_code: str | None = None,
                 failures: list[tuple[str, str]] | None = None):
        self.code = code
        self.message = message
        self.remote_code = remote_code
        self.failures = failures
        text = f"{code}: {message}" if message else code
        if remote_code:
            text += f" [{remote_code}]"
        super().__init__(text)


def wrap_remote(err: EngineError) -> EngineError:
    """Wrap a callee-side fault so the caller sees RemoteException with the original code."""
    if err.code == E_REMOTE:
        return err
    return EngineError(E_REMOTE, err.message, remote_code=err.code)
