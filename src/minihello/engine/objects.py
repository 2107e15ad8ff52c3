"""Object and event records of one host."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runtime import Queue
from ..security import CredentialSet
from ..values import ClassKey


class ObjectRecord:
    """One live object: its class, field values, and an optional ACL.
    `partition` is None for an object of the engine heap, private to its
    host, and 0 for one of the host's shared partition, which other hosts
    reach by reference."""

    __slots__ = ("cls", "fields", "acl", "partition")

    def __init__(self, cls: ClassKey, fields: list, partition: int | None):
        self.cls = cls
        self.fields = fields
        self.acl: CredentialSet | None = None
        self.partition = partition


@dataclass
class EventRecord:
    """A deferred method call. Fires exactly once, when the last argument
    slot fills (a filled slot cannot be filled again); firing enqueues the
    call on the owner queue."""

    eid: int
    queue: Queue
    target: object  # ObjectRef
    method: str
    slots: list  # of [filled: bool, value]
    # (Intake, sender) of each slot filled from another host
    received: list = field(default_factory=list)

    @property
    def arity(self) -> int:
        return len(self.slots)

    def unfilled(self) -> int:
        return sum(1 for s in self.slots if not s[0])
