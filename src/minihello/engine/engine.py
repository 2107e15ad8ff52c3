"""The runtime engine: one per host.

Owns one object table, queues, events, pack store, and security map;
executes IR through the machine module; and speaks the INVOKE/REPLY wire
protocol through a router port. All potentially-blocking operations are
generators that yield Futures, driven by the active scheduler.

The RPC core does each job at one site:
- a request leaves through `send_request` (a runpack fetch through
  `fetch_pack`); `_send_pending` registers its pending call before the frame
  is sent and arms its timeout after;
- `handle_wire_frame` dispatches every arriving frame by kind;
- a served INVOKE, CREATE or BARRIER is queued by `_serve`, which answers
  with the task's REPLY payload or with the ERROR it fails with;
- one refusal rule: a refused INVOKE, CREATE or BARRIER is answered with an
  ERROR, and a refused POST, which has no answer, is logged;
- a REPLY, ERROR or final PACK_DATA claims its open call through
  `_take_pending`, which cancels the call's timer and counts in
  `orphaned_replies` each reply that no open call claims;
- every payload's fixed-form fields are written and read through its
  layout in `net/frames.py`, which the router uses too; this module writes
  and reads only the wire values around them;
- a frame's values are decoded into the heap through one `Intake`, whose
  records join `objects` once the frame is accepted; the task that serves
  it, or waits for it (`reply_value`), runs `from_wire` first.
It stays in this module and class because `bench/tracing.py` wraps
`Engine.handle_wire_frame` and `Engine._run_body` in the class's own
namespace, and the codec and marshaling functions in this module's.

`deep_copy`, `create_event`/`fill_event` and `Scenario.submit_task` are
reached only from tests and `bench/`, which test them through this API; no
Hello syntax reaches them. They stay (ROADMAP item 15).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .. import groups
from ..bio import STR, BadString, Reader, ShortRead, Writer
from ..errors import (E_ACCESS_DENIED, E_ACCESS_VIOLATION, E_HANDLE_CLOSED,
                      E_HASH_MISMATCH, E_HOP_UNREACHABLE, E_HOST_UNREACHABLE,
                      E_INDEX, E_NO_MAIN, E_NON_COPYABLE, E_NULL_REF,
                      E_PACK_NOT_FOUND, E_SLOT_FILLED,
                      E_SLOT_RANGE, E_TIMEOUT, E_UNKNOWN_CLASS,
                      E_UNKNOWN_EVENT, E_UNKNOWN_METHOD, E_UNKNOWN_OBJECT,
                      EngineError, wrap_remote)
from ..frontend.checker import class_code, method_code
from ..frontend.types import HOST_GROUP_KEY, HOST_KEY, QUEUE_KEY
from ..net import frames
from ..net.frames import (CREATE_HEAD, ERROR_PAYLOAD, EV_CREATE, EV_FILL,
                          EVENT_SIGNATURE, EVENT_SLOT, FETCH_PACK_PAYLOAD,
                          OP_BARRIER, OP_CREATE, OP_INVOKE, OP_POST,
                          PACK_DATA_PAYLOAD, REQUEST_HEAD, CreateHead,
                          ErrorInfo, FrameMeta, PackData, RequestHead)
from ..net.wirevalues import (MalformedEncoding, decode_value_prefix,
                              encode_value)
from ..runpack import ir
from ..runpack.image import (ORIGIN_NETWORK, ImageFormatError, PackStore,
                             RunpackImage, deserialize, serialize)
from ..runtime import Future, HostView, Queue, Request
from ..security import (ANONYMOUS_SID, ALL_PRIVS, CREATE, CredentialSet, EXEC,
                        READ, WRITE, check_access)
from ..stdlib import (BUILTIN_CLASSES, HOST_OBJECT_OID, HOSTS_NODE_OID,
                      INTRINSICS, NATIVE_METHODS, SERVICE_QUEUE_OID, host_ref,
                      hosts_node_ref)
from ..values import (Array, CharArray, ClassKey, ObjectRef, TAG_ARRAY,
                      TAG_OBJECT)
from . import machine
from .marshal import (Intake, from_wire, local_copy, marshal_args,
                      snapshot_arrays, to_wire, write_args)
from .objects import EventRecord, ObjectRecord

PACK_CHUNK = 64 * 1024

# System methods: name -> (privilege, copy flag and type of each parameter).
SYS_METHODS = {
    "$echo": (EXEC, (True,), (object,)),
    "$traverse": (EXEC, (False, True, False, False),
                  (CharArray, Array, CharArray, Array)),
    "$getf": (READ, (False,), (CharArray,)),
    "$setf": (WRITE, (False, False), (CharArray, object)),
}


def _leaving(write, *args):
    """Call `write` (to_wire or write_args) on values that leave this host.
    A value nested deeper than the wire encoding allows is then a fault of
    the sending task, NonCopyableValue, not an encoder error that would
    escape the scheduler."""
    try:
        return write(*args)
    except MalformedEncoding as exc:
        raise EngineError(E_NON_COPYABLE, str(exc)) from None


@dataclass
class EngineConfig:
    host_name: str
    listen: str | None = None
    seeds: tuple = ()
    primary: bool = False
    call_timeout_ms: int = 30_000
    fetch_timeout_ms: int = 30_000
    ping_interval_ms: int = 2_000
    ping_miss_limit: int = 3
    gossip_interval_ms: int = 500
    grants: tuple = ()          # (sid, mask) pairs for the host map
    lockdown: bool = False      # True: no implicit anonymous grant
    stdout_path: str | None = None


@dataclass
class TaskCtx:
    queue: Queue
    origin: str | None = None  # host to fetch missing packages from

    def sids(self) -> list[bytes]:
        return sorted(self.queue.creds.sids())


class RuntimeClass:
    """A loaded class: IR code plus any native method bindings."""

    __slots__ = ("key", "code", "consts", "content_hash", "natives",
                 "_field_slots", "_bodies")

    def __init__(self, key: ClassKey, code: ir.ClassCode, consts: list[bytes],
                 natives: dict | None = None, content_hash: bytes = b""):
        self.key = key
        self.code = code
        self.consts = consts
        self.content_hash = content_hash  # of the image, b"" for builtins
        self.natives = natives or {}
        self._field_slots = {}
        for i, (fname, _) in enumerate(code.fields):
            self._field_slots.setdefault(fname, i)  # the first one wins
        self._bodies = {}  # method name -> machine.compile_method(...)

    def has(self, bit: int) -> bool:
        return self.code.has(bit)

    def method(self, name: str) -> ir.MethodCode | None:
        return self.code.method(name)

    def native(self, name: str):
        return self.natives.get(name)

    def field_index(self, name: str) -> int | None:
        return self._field_slots.get(name)

    def compiled(self, mc: ir.MethodCode):
        """The (body, suspends) pair of one of this class's methods,
        compiled the first time it runs."""
        body = self._bodies.get(mc.name)
        if body is None:
            body = self._bodies[mc.name] = machine.compile_method(
                mc, self.key, self.consts, self.content_hash)
        return body


def _builtin_runtime_classes() -> dict[ClassKey, RuntimeClass]:
    """The builtin classes as the checker sees them (`BUILTIN_CLASSES`),
    lowered as the checker lowers a declared class, with their native
    methods."""
    out = {}
    for sig in BUILTIN_CLASSES.values():
        code = class_code(sig, [method_code(m, len(m.params), ir.IrBlock([]))
                                for m in sig.methods.values()])
        natives = {name: fn for (ckey, name), fn in NATIVE_METHODS.items()
                   if ckey == sig.key}
        out[sig.key] = RuntimeClass(sig.key, code, [], natives)
    return out


class _Reply(Future):
    """The future of an open call: it resolves with the reply's value, and
    `missing` is the `Intake.missing` of the reply's frame."""
    missing = ()


@dataclass(slots=True)
class _PendingCall:
    """An open call. The call of a runpack fetch also holds the package it
    asked for and the PACK_DATA chunks received so far."""
    future: Future
    timer: object = None  # None while its frame is being sent
    next_hop: str | None = None
    package: str | None = None
    chunks: list[bytes] | None = None  # None unless a fetch


class Engine:
    def __init__(self, config: EngineConfig, scheduler: HostView,
                 port=None, incarnation: int = 1):
        self.config = config
        self.host_name = config.host_name
        self.scheduler = scheduler
        self.port = port
        self.incarnation = incarnation

        self.packstore = PackStore()
        self.classes: dict[ClassKey, RuntimeClass] = _builtin_runtime_classes()
        # What the compiled bodies look up by class, filled on first use and
        # cleared whenever `classes` changes: (class, field name) -> slot,
        # and (class, method) -> (rc, mc, plain) of a static method.
        self.field_slots: dict[tuple[ClassKey, str], int] = {}
        self._statics: dict[tuple[ClassKey, str], tuple] = {}

        # every object of this host, keyed by oid; oids are never reused
        self.objects: dict[int, ObjectRecord] = {}
        self.oids = itertools.count(10)

        self.queues: dict[int, Queue] = {}
        self._qid = itertools.count(0)

        self.host_map = CredentialSet()
        if not config.lockdown:
            self.host_map.grant(ANONYMOUS_SID, ALL_PRIVS)
        for sid, mask in config.grants:
            self.host_map.grant(sid, mask)
        self.default_creds = CredentialSet.permissive()
        self.audit_count = 0

        self.events: dict[int, EventRecord] = {}
        self._eid = itertools.count(1)

        self._corr = itertools.count(1)
        self.pending: dict[int, _PendingCall] = {}
        self._fetch_inflight: dict[str, Future] = {}
        self.fetch_frames_sent = 0
        self.orphaned_replies = 0  # replies no open call took

        # exec handles live in the queue that opened them; one count per
        # host, so that one queue's handle never names another's command
        self._exec_id = itertools.count(1)
        # the char arrays that exec_read is filling; a copy of one is made
        # at once, since over TCP the pipe fills it over several callbacks
        self.filling: list[CharArray] = []

        self._traversals_seen: set[str] = set()
        self._traversal_order: deque[str] = deque()
        self._traversal_counter = itertools.count(1)

        self.stdout_sink = None
        self.capture_stdout = True
        self.stdout_bytes = bytearray()

        self.error_log: list[tuple[str, str]] = []
        self.on_host_event = None  # callable(kind, detail) set by the node

        self.service_queue = self.new_queue()
        self._bootstrap_objects()

    # ------------------------------------------------------------------ setup

    def _bootstrap_objects(self) -> None:
        self.objects[HOST_OBJECT_OID] = ObjectRecord(HOST_KEY, [], 0)
        self.objects[HOSTS_NODE_OID] = ObjectRecord(
            HOST_GROUP_KEY, [host_ref(self.host_name)], 0)
        self.objects[SERVICE_QUEUE_OID] = ObjectRecord(
            QUEUE_KEY, [self.service_queue.qid], 0)

    # ---------------------------------------------------------------- storage

    def new_queue(self, creds: CredentialSet | None = None, label: str = "") -> Queue:
        qid = next(self._qid)
        q = Queue(qid, creds.copy() if creds else self.default_creds.copy())
        self.queues[qid] = q
        return q

    def _release_queue(self, queue: Queue) -> None:
        """Forget a queue made for one request, once that request is done,
        and the exec handles it owns, whose pipes it closes. Nothing names
        the queue any more, so nothing can submit to it."""
        del self.queues[queue.qid]
        queue.close_exec_handles()

    def alloc_object(self, cls: ClassKey, partition: int | None,
                     fields: list) -> ObjectRef:
        """A new object in the heap (`partition` None) or in the shared
        partition (0)."""
        oid = next(self.oids)
        self.objects[oid] = ObjectRecord(cls, fields, partition)
        return ObjectRef(self.host_name, partition, oid, cls)

    def deref(self, ref: ObjectRef) -> ObjectRecord:
        """The record a ref names. It must name this host, the oid and the
        record's partition: a heap oid under partition 0 names nothing."""
        if ref.host != self.host_name:
            raise EngineError(E_UNKNOWN_OBJECT,
                              f"ref to {ref.host} dereferenced at {self.host_name}")
        record = self.objects.get(ref.oid)
        if record is None or record.partition != ref.partition:
            raise EngineError(E_UNKNOWN_OBJECT, f"no object {ref.oid}")
        return record

    # ----------------------------------------------------------------- classes

    def runtime_class(self, key: ClassKey) -> RuntimeClass | None:
        return self.classes.get(key)

    def install_image(self, image: RunpackImage, origin: str = "local-disk") -> None:
        self.packstore.install(image, origin)
        for code in image.classes:
            key = ClassKey(image.package, code.name)
            rc = self.classes.get(key)
            if rc is not None and rc.code is code and rc.consts is image.constants:
                continue  # the same image again: keep its compiled methods
            self.classes[key] = RuntimeClass(key, code, image.constants,
                                             content_hash=image.content_hash)
            self.field_slots.clear()
            self._statics.clear()

    def ensure_class(self, key: ClassKey, fetch_from: str | None, ctx):
        rc = self.classes.get(key)
        if rc is not None:
            return rc
        if self.packstore.resolve(key.package) is not None or fetch_from is None \
                or fetch_from == self.host_name:
            raise EngineError(E_UNKNOWN_CLASS, f"unknown class {key}")
        fut = self.fetch_pack(fetch_from, key.package)
        yield fut
        rc = self.classes.get(key)
        if rc is None:
            raise EngineError(E_UNKNOWN_CLASS, f"{key} missing after fetch")
        return rc

    def field_index(self, cls: ClassKey, name: str, hint: int) -> int:
        """The slot of field `name` in objects of `cls`, which it enters in
        `field_slots`; `hint` when the class is not loaded or has no such
        field."""
        rc = self.classes.get(cls)
        if rc is not None:
            idx = rc.field_index(name)
            if idx is not None:
                self.field_slots[cls, name] = idx
                return idx
        return hint

    def param_sigs(self, cls: ClassKey, method: str):
        if method in SYS_METHODS:
            flags = SYS_METHODS[method][1]
            return [ir.IrParam(f"a{i}", ir.TypeDesc("class", 0, None), f)
                    for i, f in enumerate(flags)]
        rc = self.classes.get(cls)
        if rc is None:
            return None
        mc = rc.method(method)
        return list(mc.params) if mc is not None else None

    # ---------------------------------------------------------------- security

    def _acl_of(self, target) -> CredentialSet | None:
        """The ACL of a remote request's target: None unless the target is
        an object on this host that has one."""
        if not isinstance(target, ObjectRef):
            return None
        try:
            return self.deref(target).acl
        except EngineError:
            return None

    def check_remote_request(self, priv: int, sids: list[bytes],
                             acl: CredentialSet | None) -> None:
        self.audit_count += 1
        queue_creds = CredentialSet({sid: 0 for sid in sids})
        decision = check_access(queue_creds, acl, self.host_map, priv)
        if not decision:
            raise EngineError(E_ACCESS_DENIED,
                              f"denied at {decision.denied_layer} layer")

    def check_local_object(self, record: ObjectRecord, priv: int, ctx) -> None:
        """The object-layer check of a local access with privilege `priv`."""
        if record.acl is None:
            return
        self.audit_count += 1
        if not record.acl.allows(ctx.sids(), priv):
            raise EngineError(E_ACCESS_DENIED, "denied at object layer")

    # ------------------------------------------------------------- invocation

    def invoke(self, ref, method: str, args: list, ctx):
        """Call a method through a reference, local or remote. Generator."""
        if ref is None:
            raise wrap_remote(EngineError(E_NULL_REF, f"call of '{method}' on null"))
        if not isinstance(ref, ObjectRef):
            raise wrap_remote(EngineError(E_NULL_REF, f"'{method}' target is not an object"))
        if ref.host == self.host_name:
            return (yield from self.invoke_local(ref, method, args, ctx))
        fut = self.send_request(ref.host, frames.INVOKE,
                                self._call_payload(ref, method, args, ctx))
        return (yield from self.reply_value(fut, ref.host, ctx))

    def invoke_local(self, ref: ObjectRef, method: str, args: list, ctx, *,
                     from_remote: bool = False):
        """Call a method of an object on this host. A call `from_remote`
        comes with its arguments received already, and returns its result
        for the reply to marshal. Generator."""
        record = self.deref(ref)
        rc = self.classes.get(record.cls)
        if rc is None:
            raise EngineError(E_UNKNOWN_CLASS, f"unloaded class {record.cls}")
        native = rc.native(method)
        mc = rc.method(method)
        if native is None and mc is None:
            raise wrap_remote(EngineError(
                E_UNKNOWN_METHOD, f"{record.cls} has no method '{method}'"))
        if from_remote and mc is not None and not mc.has(ir.MQ_EXTERNAL):
            raise EngineError(E_ACCESS_VIOLATION,
                              f"method '{method}' is not external")
        if not from_remote:  # a received argument list is the call's own
            self.check_local_object(record, EXEC, ctx)
            args = marshal_args(self, list(mc.params) if mc else None, args,
                                post=False)
        try:
            if native is not None:
                result = native(self, ctx, ref, args)
                if hasattr(result, "send"):
                    result = yield from result
            else:
                result = yield from self._run_body(rc, mc, ref, args, ctx)
        except EngineError as err:
            raise wrap_remote(err) from None
        if from_remote:
            return result  # the reply path applies the crossing marshal
        ret_copy = mc.ret_copy if mc is not None else False
        return local_copy(self, result) if ret_copy else result

    def invoke_static(self, cls: ClassKey, method: str, args: list, ctx):
        """Call a static method. The method is looked up once per class
        image and kept in `_statics`; a call to a method with no copy
        parameter and no copy return passes its values as they are.
        Generator."""
        try:
            rc, mc, plain = self._statics[cls, method]
        except KeyError:
            rc = self.classes.get(cls)
            if rc is None:
                raise EngineError(E_UNKNOWN_CLASS, f"unknown class {cls}") from None
            mc = rc.method(method)
            if mc is None or not mc.has(ir.MQ_STATIC):
                raise EngineError(E_UNKNOWN_METHOD,
                                  f"{cls} has no static '{method}'") from None
            plain = not mc.ret_copy and not any(p.copy for p in mc.params)
            self._statics[cls, method] = rc, mc, plain
        # faults in a static body propagate bare: there is no caller-callee
        # hop to wrap them for
        if plain:
            return (yield from self._run_body(rc, mc, None, args, ctx))
        call_args = marshal_args(self, list(mc.params), args, post=False)
        result = yield from self._run_body(rc, mc, None, call_args, ctx)
        return local_copy(self, result) if mc.ret_copy else result

    def _run_body(self, rc: RuntimeClass, mc: ir.MethodCode, this_ref,
                  args: list, ctx):
        body, suspends = rc.compiled(mc)
        if suspends:
            return (yield from body(self, this_ref, ctx, *args))
        return body(self, this_ref, ctx, *args)

    # --------------------------------------------------------------- creation

    def create_object(self, cls: ClassKey, placement: tuple, args: list, ctx):
        """placement: ('heap',) | ('partition', 0) | ('remote', host, pid|None)."""
        if placement[0] == "remote":
            return (yield from self._create_remote(cls, placement[1],
                                                   placement[2], args, ctx))
        rc = yield from self.ensure_class(cls, ctx.origin, ctx)
        pid = None if placement[0] == "heap" else placement[1]
        if cls == QUEUE_KEY:
            q = self.new_queue()
            return self.alloc_object(QUEUE_KEY, 0, [q.qid])
        n_fields = len(rc.code.fields)
        defaults = [machine.default_value(ty) for _, ty in rc.code.fields]
        ref = self.alloc_object(cls, pid, defaults[:n_fields])
        ctor = rc.method(cls.name)
        if ctor is not None and ctor.has(ir.MQ_CTOR):
            call_args = marshal_args(self, list(ctor.params), args, post=False)
            try:
                yield from self._run_body(rc, ctor, ref, call_args, ctx)
            except EngineError as err:
                raise wrap_remote(err) from None
        return ref

    def _create_remote(self, cls: ClassKey, host: str, pid, args: list, ctx):
        rc = self.classes.get(cls)
        if rc is not None and not rc.has(ir.CQ_EXTERNAL) and cls != QUEUE_KEY:
            raise EngineError(E_ACCESS_VIOLATION,
                              f"class {cls} is not external")
        params = list(rc.method(cls.name).params) if rc and rc.method(cls.name) else None
        w = self._request_head(OP_CREATE, ctx)
        CREATE_HEAD.write(w, CreateHead(cls, pid is not None, pid or 0))
        _leaving(write_args, self, params, args, w.buf)
        fut = self.send_request(host, frames.INVOKE, w.buf)
        return (yield from self.reply_value(fut, host, ctx))

    # ------------------------------------------------------- queues and posts

    def resolve_queue(self, qref: ObjectRef) -> Queue:
        if qref is None:
            raise EngineError(E_NULL_REF, "null queue reference")
        record = self.deref(qref)
        if record.cls != QUEUE_KEY or not record.fields:
            raise EngineError(E_UNKNOWN_OBJECT, "not a queue object")
        q = self.queues.get(record.fields[0])
        if q is None:
            raise EngineError(E_UNKNOWN_OBJECT, "queue is gone")
        return q

    def post_message(self, qref: ObjectRef, target, method: str, args: list,
                     ctx) -> None:
        """The #> operator: fire-and-forget enqueue; copy-qualified and array
        arguments are snapshotted now, so the caller may reuse its buffers.
        A `char[]` snapshot is copy-on-write (`CharArray.share`): the bytes
        are copied only when the caller or the message first writes them,
        by index, by `+=` or by `exec_read`. A post to another host writes
        its arguments' wire bytes at once."""
        if qref is None:
            raise EngineError(E_NULL_REF, "post to null queue")
        params = self.param_sigs(target.cls, method) if isinstance(target, ObjectRef) else None
        if qref.host != self.host_name:
            w = self._request_head(OP_POST, ctx)
            w.raw(encode_value(qref))
            _leaving(to_wire, self, target, False, w.buf)
            STR.write(w, method)
            _leaving(write_args, self, params, args, w.buf)
            self.send_oneway(qref.host, frames.INVOKE, w.buf)
            return
        queue = self.resolve_queue(qref)
        if params is not None and isinstance(target, ObjectRef):
            rc = self.classes.get(target.cls)
            mc = rc.method(method) if rc else None
            if mc is not None and not mc.has(ir.MQ_MESSAGE):
                raise EngineError(E_ACCESS_VIOLATION,
                                  f"'{method}' is not a message method")
        snap_args = marshal_args(self, params, args, post=True)
        ctx2 = TaskCtx(queue, ctx.origin)

        def factory():
            return self._task_exec_invoke(target, method, snap_args, ctx2)

        self.scheduler.submit(queue, Request(factory))

    def _task_exec_invoke(self, target, method, args, ctx):
        try:
            yield from self.invoke(target, method, args, ctx,)
        except EngineError as err:
            self.log_error(err.code, f"queued {method}: {err.message}")

    def queued_eval(self, qref: ObjectRef, thunk, ctx):
        """The <=> operator. `thunk` is a function of no arguments, or a
        generator function (the compiled expression, over the caller's
        locals). It evaluates when it reaches the queue head: for a local
        queue it runs on the queue's lane, for a remote queue a barrier
        marker drains the queue first and it evaluates here on return."""
        if qref is None:
            raise EngineError(E_NULL_REF, "<=> on null queue")
        if qref.host != self.host_name:
            fut = self.send_request(qref.host, frames.INVOKE,
                                    self._barrier_payload(qref, ctx))
            yield fut
            value = thunk()
            if hasattr(value, "send"):
                value = yield from value
            return value
        queue = self.resolve_queue(qref)
        fut = Future()
        self._arm_deadline(fut, self.config.call_timeout_ms)
        self.scheduler.submit(queue, Request(thunk, fut))
        return (yield fut)

    # ------------------------------------------------------------------ events

    def create_event(self, qref: ObjectRef, target, method: str, arity: int, ctx):
        if qref is None:
            raise EngineError(E_NULL_REF, "event on null queue")
        if qref.host != self.host_name:
            w = self._request_head(EV_CREATE, ctx)
            w.raw(encode_value(qref))
            _leaving(to_wire, self, target, False, w.buf)
            EVENT_SIGNATURE.write(w, (method, arity))
            fut = self.send_request(qref.host, frames.EVENT_POST, w.buf)
            eid = yield fut
            return (qref.host, eid)
        queue = self.resolve_queue(qref)
        return (self.host_name,
                self._new_event(queue, target, method, arity, ctx.origin))

    def _new_event(self, queue: Queue, target, method: str, arity: int,
                   origin) -> int:
        """Record an event owned by `queue`; one of no slots fires now."""
        eid = next(self._eid)
        ev = EventRecord(eid, queue, target, method,
                         [[False, None] for _ in range(arity)])
        self.events[eid] = ev
        if arity == 0:
            self._fire_event(ev, origin)
        return eid

    def fill_event(self, event_id: tuple, slot: int, value, ctx):
        host, eid = event_id
        if host != self.host_name:
            w = self._request_head(EV_FILL, ctx)
            EVENT_SLOT.write(w, (eid, slot))
            _leaving(to_wire, self, value, False, w.buf)
            fut = self.send_request(host, frames.EVENT_POST, w.buf)
            status = yield fut
            return "fired" if status == 1 else "pending"
        # a snapshot, as a post takes, so that the filler may reuse buffers
        return self._fill_local(self._free_slot(eid, slot), slot,
                                snapshot_arrays(self, value), ctx.origin)

    def _free_slot(self, eid: int, slot: int) -> EventRecord:
        """The event `eid` of this host, whose slot `slot` is free."""
        ev = self.events.get(eid)
        if ev is None:
            raise EngineError(E_UNKNOWN_EVENT, f"no event {eid}")
        if not 0 <= slot < ev.arity:
            raise EngineError(E_SLOT_RANGE, f"slot {slot} of {ev.arity}")
        if ev.slots[slot][0]:
            raise EngineError(E_SLOT_FILLED, f"slot {slot}")
        return ev

    def _fill_local(self, ev: EventRecord, slot: int, value, origin) -> str:
        ev.slots[slot][0] = True
        ev.slots[slot][1] = value
        if ev.unfilled() == 0:
            self._fire_event(ev, origin)
            return "fired"
        return "pending"

    def _fire_event(self, ev: EventRecord, origin) -> None:
        ctx = TaskCtx(ev.queue, origin)

        def factory():
            return self._task_event_fire(ev, ctx)

        self.scheduler.submit(ev.queue, Request(factory))

    def _task_event_fire(self, ev: EventRecord, ctx):
        self.events.pop(ev.eid, None)
        try:
            yield from self.invoke(ev.target, ev.method,
                                   [value for _filled, value in ev.slots], ctx)
        except EngineError as err:
            self.log_error(err.code, f"event {ev.method}: {err.message}")

    # ------------------------------------------------------------------ groups

    def iterate(self, gref, method: str, args: list, ctx):
        return (yield from groups.iterate(self, ctx, gref, method, args))

    def next_traversal_id(self) -> int:
        return next(self._traversal_counter)

    def mark_traversal(self, tid: str) -> bool:
        if tid in self._traversals_seen:
            return False
        self._traversals_seen.add(tid)
        self._traversal_order.append(tid)
        if len(self._traversal_order) > 4096:
            self._traversals_seen.discard(self._traversal_order.popleft())
        return True

    def start_traverse(self, node_ref: ObjectRef, method: str, args: list,
                       tid: str, visited: list[str], ctx) -> Future:
        """Forward a traversal to a node on another host (`groups.run_node`
        visits this host's node itself); returns the reply future."""
        payload = self._call_payload(node_ref, "$traverse", [
            CharArray.from_str(method), Array(TAG_OBJECT, list(args)),
            CharArray.from_str(tid),
            Array(TAG_ARRAY, [CharArray.from_str(v) for v in visited])], ctx)
        return self.send_request(node_ref.host, frames.INVOKE, payload)

    def reply_value(self, fut: _Reply, fetch_from: str | None, ctx):
        """A call's reply value, once `from_wire` has run. Generator."""
        value = yield fut
        yield from from_wire(self, fut.missing, fetch_from, ctx)
        return value

    # --------------------------------------------------------------- deep copy

    def deep_copy(self, value, dest_host: str, ctx):
        """Copy a value graph to another host (or locally): primitives by
        value, object graphs with aliasing and cycles preserved."""
        if dest_host == self.host_name:
            return local_copy(self, value)
        return (yield from self.invoke(host_ref(dest_host), "$echo", [value], ctx))

    # --------------------------------------------------------------- main entry

    def run_main(self, image: RunpackImage, argv: list[str]) -> Future:
        self.install_image(image)
        found = image.find_main()
        fut = Future()
        if found is None:
            fut.fail(EngineError(E_NO_MAIN, f"package {image.package} has no main"))
            return fut
        cls_code, mc = found
        cls_key = ClassKey(image.package, cls_code.name)
        queue = self.new_queue()
        fut.add_callback(lambda _f: self._release_queue(queue))
        ctx = TaskCtx(queue)
        args = []
        if mc.params:
            args = [Array(TAG_ARRAY, [CharArray(a.encode("utf-8")) for a in argv])]

        def factory():
            return self._task_main(cls_key, mc.name, args, ctx)

        self.scheduler.submit(queue, Request(factory, fut))
        return fut

    def _task_main(self, cls_key, method, args, ctx):
        result = yield from self.invoke_static(cls_key, method, args, ctx)
        return result if isinstance(result, int) else 0

    # ----------------------------------------------------------------- network

    def next_corr(self) -> int:
        return next(self._corr)

    def _arm_deadline(self, fut: Future, ms: int) -> None:
        timer = self.scheduler.call_later(
            ms, lambda: fut.fail(EngineError(E_TIMEOUT, f"no reply within {ms} ms")))
        fut.add_callback(lambda _f: self.scheduler.cancel(timer))

    def send_request(self, dst: str, kind: int, payload: bytes | bytearray,
                     timeout_ms: int | None = None) -> Future:
        if self.port is None:
            raise EngineError(E_HOST_UNREACHABLE, "engine has no network")
        fut = _Reply()
        timeout = timeout_ms if timeout_ms is not None else self.config.call_timeout_ms
        self._send_pending(dst, frames.Frame(kind, self.next_corr(), payload),
                           _PendingCall(fut), timeout)
        return fut

    def _send_pending(self, dst: str, frame: frames.Frame, entry: _PendingCall,
                      timeout_ms: int) -> None:
        """Register `entry` as the pending call of `frame`, then send it.

        The entry exists before `send` runs, so that a reply a port delivers
        before `send` returns still finds its call. The timeout is armed
        after `send`, and only while the call is still open, so that the
        simulator draws its jitter for the frame first, as it always has.
        If `send` raises, the entry goes away again."""
        corr = frame.corr
        self.pending[corr] = entry
        try:
            next_hop = self.port.send(dst, frame)  # raises HostUnreachable
        except BaseException:
            self.pending.pop(corr, None)
            raise
        entry.next_hop = next_hop
        if corr in self.pending:
            entry.timer = self.scheduler.call_later(
                timeout_ms, lambda: self._timeout_pending(corr))

    def _take_pending(self, corr: int) -> _PendingCall | None:
        """Claim the open call `corr`: pop it and cancel its timer. A reply
        that no open call claims is counted."""
        entry = self.pending.pop(corr, None)
        if entry is None:
            self.orphaned_replies += 1
        elif entry.timer is not None:  # None while its frame is being sent
            self.scheduler.cancel(entry.timer)
        return entry

    def send_oneway(self, dst: str, kind: int,
                    payload: bytes | bytearray) -> None:
        if self.port is None:
            raise EngineError(E_HOST_UNREACHABLE, "engine has no network")
        self.port.send(dst, frames.Frame(kind, self.next_corr(), payload))

    def _timeout_pending(self, corr: int) -> None:
        entry = self.pending.pop(corr, None)
        if entry is not None:
            entry.future.fail(EngineError(E_TIMEOUT, f"call {corr} timed out"))

    def fail_pending_next_hop(self, neighbor: str) -> None:
        """Router hook: a neighbor was evicted. Every open call whose next
        hop it was, a direct call to it or a call routed through it, fails
        at once as HostUnreachable."""
        for corr, entry in list(self.pending.items()):
            if entry.next_hop == neighbor:
                self._take_pending(corr)
                entry.future.fail(EngineError(
                    E_HOST_UNREACHABLE, f"route via {neighbor} lost"))

    def on_neighbor_added(self, name: str) -> None:
        if self.on_host_event:
            self.on_host_event("neighbor-added", name)

    def on_neighbor_removed(self, name: str) -> None:
        self.fail_pending_next_hop(name)
        if self.on_host_event:
            self.on_host_event("neighbor-removed", name)

    # ------------------------------------------------------- payload plumbing

    def _request_head(self, op: int, ctx) -> Writer:
        """A writer holding the REQUEST_HEAD of an INVOKE or EVENT_POST that
        `ctx`'s task sends, for the sub-operation's fields to follow."""
        w = Writer()
        REQUEST_HEAD.write(w, RequestHead(
            op, self.host_name,
            ctx.sids() if ctx is not None else [ANONYMOUS_SID]))
        return w

    def _call_payload(self, ref: ObjectRef, method: str, args: list,
                      ctx) -> bytearray:
        w = self._request_head(OP_INVOKE, ctx)
        w.raw(encode_value(ref))
        STR.write(w, method)
        _leaving(write_args, self, self.param_sigs(ref.cls, method), args,
                 w.buf)
        return w.buf

    def _barrier_payload(self, qref: ObjectRef, ctx) -> bytearray:
        w = self._request_head(OP_BARRIER, ctx)
        w.raw(encode_value(qref))
        return w.buf

    # ------------------------------------------------------------ frame intake

    def handle_wire_frame(self, frame: frames.Frame, meta: FrameMeta) -> None:
        try:
            if frame.kind == frames.INVOKE:
                self._on_invoke(frame, meta)
            elif frame.kind == frames.REPLY:
                self._on_reply(frame)
            elif frame.kind == frames.ERROR:
                self._on_error(frame)
            elif frame.kind == frames.FETCH_PACK:
                self._on_fetch_pack(frame, meta)
            elif frame.kind == frames.PACK_DATA:
                self._on_pack_data(frame)
            elif frame.kind == frames.EVENT_POST:
                self._on_event_post(frame, meta)
            else:
                self.log_error("BadFrame", f"unexpected {frame.kind_name}")
        except (MalformedEncoding, ShortRead, BadString, EngineError) as exc:
            self.log_error("BadFrame", f"{frame.kind_name}: {exc}")

    def _reply_value(self, meta: FrameMeta, corr: int, value) -> None:
        self._send_back(meta, frames.Frame(frames.REPLY, corr, encode_value(value)))

    def _reply_error(self, meta: FrameMeta, corr: int, err: EngineError) -> None:
        payload = ERROR_PAYLOAD.pack(ErrorInfo(err.code, err.remote_code or "",
                                               err.message or ""))
        self._send_back(meta, frames.Frame(frames.ERROR, corr, payload))

    def _send_back(self, meta: FrameMeta, frame: frames.Frame) -> None:
        if self.port is None:
            return
        try:
            self.port.send_via(list(meta.reverse_path), meta.src, frame)
        except EngineError as err:
            self.log_error(err.code, f"reply to {meta.src} lost")

    def _serve(self, meta: FrameMeta, corr: int, queue: Queue,
               factory) -> Future:
        """Queue a served request. Its task returns the REPLY payload, or
        fails with the error to send back: a request that is queued is
        always answered. Returns the request's future."""
        done = Future()

        def answer(fut: Future) -> None:
            try:
                payload = fut.result()
            except EngineError as err:
                self._reply_error(meta, corr, err)
                return
            self._send_back(meta, frames.Frame(frames.REPLY, corr, payload))

        done.add_callback(answer)
        self.scheduler.submit(queue, Request(factory, done))
        return done

    def _on_invoke(self, frame: frames.Frame, meta: FrameMeta) -> None:
        """Serve an INVOKE. A refused INVOKE, CREATE or BARRIER is answered
        with an ERROR, and a refused POST is logged: the access check
        refuses, and so does a queue reference that names no queue here.
        Only a frame that is served commits its `intake`."""
        r = Reader(frame.payload)
        op, sender, sids = REQUEST_HEAD.read(r)
        corr = frame.corr
        intake = Intake(self)
        if op == OP_INVOKE:
            target = decode_value_prefix(r, intake)
            method = STR.read(r)
            args = [decode_value_prefix(r, intake) for _ in range(r.u16())]
            priv = SYS_METHODS[method][0] if method in SYS_METHODS else EXEC
            try:
                self.check_remote_request(priv, sids, self._acl_of(target))
            except EngineError as err:
                self._reply_error(meta, corr, err)
                return
            intake.commit()
            traverse = method == "$traverse"
            queue = self.new_queue() if traverse else self.service_queue
            ctx = TaskCtx(queue, origin=sender)
            done = self._serve(meta, corr, queue, lambda:
                               self._task_remote_invoke(target, method, args,
                                                        intake.missing, ctx))
            if traverse:
                done.add_callback(lambda _f: self._release_queue(queue))
        elif op == OP_POST:
            qref = decode_value_prefix(r, intake)
            target = decode_value_prefix(r, intake)
            method = STR.read(r)
            args = [decode_value_prefix(r, intake) for _ in range(r.u16())]
            try:
                self.check_remote_request(EXEC, sids, self._acl_of(target))
                queue = self.resolve_queue(qref)
                intake.commit()
                ctx = TaskCtx(queue, origin=sender)
                self.scheduler.submit(queue, Request(lambda: self._task_remote_post(
                    target, method, args, intake.missing, ctx)))
            except EngineError as err:
                self.log_error(err.code, f"remote post {method} dropped")
        elif op == OP_CREATE:
            key, has_pid, pid = CREATE_HEAD.read(r)
            args = [decode_value_prefix(r, intake) for _ in range(r.u16())]
            try:
                self.check_remote_request(CREATE, sids, None)
            except EngineError as err:
                self._reply_error(meta, corr, err)
                return
            intake.commit()
            ctx = TaskCtx(self.service_queue, origin=sender)
            placement_pid = pid if has_pid else 0
            self._serve(meta, corr, self.service_queue, lambda:
                        self._task_remote_create(key, placement_pid, args,
                                                 intake.missing, ctx))
        elif op == OP_BARRIER:
            qref = decode_value_prefix(r, intake)
            try:
                self.check_remote_request(EXEC, sids, None)
                self._serve(meta, corr, self.resolve_queue(qref),
                            lambda: encode_value(1))
            except EngineError as err:
                self._reply_error(meta, corr, err)
        else:
            self.log_error("BadFrame", f"unknown INVOKE op {op}")

    def _task_remote_invoke(self, target, method: str, args, missing, ctx):
        yield from from_wire(self, missing, ctx.origin, ctx)
        if not isinstance(target, ObjectRef):
            raise wrap_remote(EngineError(E_NULL_REF, "invoke on null target"))
        if method in SYS_METHODS:
            return (yield from self._run_sys_method(target, method, args, ctx))
        result = yield from self.invoke_local(target, method, args, ctx,
                                              from_remote=True)
        rc = self.classes.get(target.cls)
        mc = rc.method(method) if rc else None
        return _leaving(to_wire, self, result, mc.ret_copy if mc else False)

    def _run_sys_method(self, target, method: str, args: list, ctx):
        kinds = SYS_METHODS[method][2]
        if len(args) != len(kinds) or not all(map(isinstance, args, kinds)) \
                or method == "$traverse" and not all(
                    type(v) is CharArray for v in args[3].items):
            raise wrap_remote(EngineError(
                E_UNKNOWN_METHOD, f"{method} takes no such arguments"))
        if method == "$echo":
            return _leaving(to_wire, self, args[0], False)
        if method == "$traverse":
            method_name = args[0].to_str()
            call_args = list(args[1].items)
            tid = args[2].to_str()
            visited = [v.to_str() for v in args[3].items]
            result = yield from groups.run_node(self, ctx, target, method_name,
                                                call_args, tid, visited)
            return _leaving(to_wire, self, result, False)
        # $getf and $setf
        record = self.deref(target)
        name = args[0].to_str()
        idx = self.field_index(record.cls, name, -1)
        if idx < 0 or idx >= len(record.fields):
            raise wrap_remote(EngineError(E_UNKNOWN_METHOD, f"no field {name}"))
        if method == "$getf":
            return _leaving(to_wire, self, record.fields[idx], False)
        record.fields[idx] = args[1]
        return encode_value(None)

    def _task_remote_post(self, target, method: str, args, missing, ctx):
        yield from from_wire(self, missing, ctx.origin, ctx)
        try:
            yield from self.invoke(target, method, args, ctx)
        except EngineError as err:
            self.log_error(err.code, f"remote post {method}: {err.message}")

    def _task_remote_create(self, key: ClassKey, pid: int, args, missing, ctx):
        rc = yield from self.ensure_class(key, ctx.origin, ctx)
        if not rc.has(ir.CQ_EXTERNAL):
            raise EngineError(E_ACCESS_VIOLATION, f"class {key} is not external")
        yield from from_wire(self, missing, ctx.origin, ctx)
        if pid != 0:  # the shared partition is the only one
            raise EngineError(E_UNKNOWN_OBJECT, f"no partition {pid}")
        ref = yield from self.create_object(key, ("partition", 0), args, ctx)
        return encode_value(ref)

    def _on_reply(self, frame: frames.Frame) -> None:
        entry = self._take_pending(frame.corr)
        if entry is None:
            return
        intake = Intake(self)
        try:
            value = decode_value_prefix(Reader(frame.payload), intake)
        except (MalformedEncoding, ShortRead) as exc:
            entry.future.fail(EngineError("BadFrame", str(exc)))
            return
        intake.commit()
        entry.future.missing = intake.missing
        entry.future.resolve(value)

    def _on_error(self, frame: frames.Frame) -> None:
        # read before claiming: a cut-short payload leaves the call its timeout
        code, remote_code, message = ERROR_PAYLOAD.unpack(frame.payload)
        entry = self._take_pending(frame.corr)
        if entry is None:
            return
        if code == E_HOP_UNREACHABLE:
            code = E_HOST_UNREACHABLE
        entry.future.fail(EngineError(code, message,
                                      remote_code=remote_code or None))

    # -------------------------------------------------------------- pack fetch

    def fetch_pack(self, origin: str, package: str) -> Future:
        """Fetch a runpack from `origin`. Concurrent demands for the same
        package share one transfer."""
        existing = self._fetch_inflight.get(package)
        if existing is not None:
            return existing
        fut = _Reply()
        self._fetch_inflight[package] = fut
        fut.add_callback(lambda _f: self._fetch_inflight.pop(package, None))
        try:
            if self.port is None:
                raise EngineError(E_HOST_UNREACHABLE, "engine has no network")
            corr = self.next_corr()
            self._send_pending(origin,
                               frames.Frame(frames.FETCH_PACK, corr,
                                            FETCH_PACK_PAYLOAD.pack(package)),
                               _PendingCall(fut, package=package, chunks=[]),
                               self.config.fetch_timeout_ms)
            self.fetch_frames_sent += 1
        except EngineError as err:
            fut.fail(err)
        return fut

    def _on_fetch_pack(self, frame: frames.Frame, meta: FrameMeta) -> None:
        package = FETCH_PACK_PAYLOAD.unpack(frame.payload)
        image = self.packstore.resolve(package)
        if image is None:
            self._reply_error(meta, frame.corr,
                              EngineError(E_PACK_NOT_FOUND, package))
            return
        data = serialize(image)
        offset = 0
        while True:
            chunk = data[offset:offset + PACK_CHUNK]
            offset += len(chunk)
            last = offset >= len(data)
            self._send_back(meta, frames.Frame(
                frames.PACK_DATA, frame.corr,
                PACK_DATA_PAYLOAD.pack(PackData(last, chunk))))
            if last:
                break

    def _on_pack_data(self, frame: frames.Frame) -> None:
        """Buffer one chunk of a fetched runpack; the last one claims the
        fetch. A chunk whose call is not an open fetch is orphaned."""
        entry = self.pending.get(frame.corr)
        if entry is None or entry.chunks is None:
            self.orphaned_replies += 1
            return
        last, chunk = PACK_DATA_PAYLOAD.unpack(frame.payload)
        entry.chunks.append(chunk)
        if not last:
            return
        self._take_pending(frame.corr)
        try:
            image = deserialize(b"".join(entry.chunks))
            if image.package != entry.package:
                raise EngineError(E_HASH_MISMATCH,
                                  f"fetched {image.package}, wanted {entry.package}")
            self.install_image(image, ORIGIN_NETWORK)
        except ImageFormatError as exc:
            entry.future.fail(EngineError(
                E_HASH_MISMATCH if exc.code == "HashMismatch" else E_UNKNOWN_CLASS,
                str(exc)))
            return
        except EngineError as err:
            entry.future.fail(err)
            return
        entry.future.resolve(True)

    def _on_event_post(self, frame: frames.Frame, meta: FrameMeta) -> None:
        r = Reader(frame.payload)
        sub, sender, sids = REQUEST_HEAD.read(r)
        try:
            self.check_remote_request(EXEC, sids, None)
        except EngineError as err:
            self._reply_error(meta, frame.corr, err)
            return
        intake = Intake(self)
        try:
            if sub == EV_CREATE:
                qref = decode_value_prefix(r, intake)
                target = decode_value_prefix(r, intake)
                method, arity = EVENT_SIGNATURE.read(r)
                queue = self.resolve_queue(qref)
                intake.commit()
                eid = self._new_event(queue, target, method, arity, sender)
                self._reply_value(meta, frame.corr, eid)
            else:
                eid, slot = EVENT_SLOT.read(r)
                value = decode_value_prefix(r, intake)
                ev = self._free_slot(eid, slot)
                intake.commit()
                status = self._fill_local(ev, slot, value, sender)
                self._reply_value(meta, frame.corr, 1 if status == "fired" else 0)
        except EngineError as err:
            self._reply_error(meta, frame.corr, err)

    # ------------------------------------------------------------ odds and ends

    def call_intrinsic(self, hook: str, args: list, ctx):
        fn = INTRINSICS.get(hook)
        if fn is None:
            raise EngineError(E_UNKNOWN_METHOD, f"no intrinsic '{hook}'")
        return fn(self, ctx, args)

    def this_host_ref(self) -> ObjectRef:
        return host_ref(self.host_name)

    def hosts_root_ref(self) -> ObjectRef:
        return hosts_node_ref(self.host_name)

    def hello_lookup(self, name: str) -> ObjectRef | None:
        if name == self.host_name:
            return host_ref(name)
        if self.port is not None and self.port.knows(name):
            return host_ref(name)
        return None

    def hosts_group_children(self) -> Array:
        names = sorted(self.port.neighbor_names()) if self.port else []
        return Array(TAG_OBJECT, [hosts_node_ref(n) for n in names])

    def hosts_group_view(self) -> tuple[set[str], set[tuple[str, str]]]:
        """The hosts and links this host knows: its own links, and the links
        along each path of the router's path table, whose consecutive hops
        are links."""
        names = {self.host_name}
        links = set()
        if self.port is not None:
            for name in self.port.neighbor_names():
                names.add(name)
                links.add((self.host_name, name))
            for dest, (hops, _via) in self.port.path_table.items():
                path = (self.host_name, *hops, dest)
                names.add(dest)
                links.update(zip(path, path[1:]))
        return names, links

    def write_stdout(self, data) -> None:
        """Write `data`, a bytes-like object, to this host's stdout. `data`
        is valid only during the call: the sink and the capture consume it
        before they return."""
        if self.stdout_sink is not None:
            self.stdout_sink(data)
        if self.capture_stdout:
            self.stdout_bytes += data

    def register_exec_handle(self, proc, queue: Queue) -> int:
        """A new exec handle for `proc`, owned by `queue`."""
        handle = next(self._exec_id)
        queue.exec_handles[handle] = proc
        return handle

    def exec_read(self, args: list, ctx):
        """The exec_read builtin: wait, while other queues run, until the
        command's pipe has filled maxn bytes of the buffer or reached EOF;
        INTRINSICS["exec_read"] gives the status. A handle names a command
        only on the queue that opened it, and only until the read that
        reaches EOF, which reaps the command, closes its pipe and drops the
        handle: a later read fails HandleClosed. The read writes the buffer,
        so a buffer that shares its bytes with a copy gets its own first,
        and a copy taken while the read is in flight copies at once
        (`filling`). Generator."""
        handle, buf, maxn = args
        proc = ctx.queue.exec_handles.get(handle)
        if proc is None:
            raise EngineError(E_HANDLE_CLOSED,
                              f"no exec handle {handle} on this queue")
        if maxn < 0 or maxn > len(buf.data):
            raise EngineError(E_INDEX, "read size exceeds buffer")
        self.filling.append(buf)
        try:
            got = yield self.scheduler.read_pipe(proc, buf.unshare(), maxn)
        finally:
            self.filling.remove(buf)
        status = self.call_intrinsic("exec_read", [proc, maxn, got], ctx)
        if proc.stdout.closed:  # at EOF
            ctx.queue.exec_handles.pop(handle, None)
        return status

    def log_error(self, code: str, context: str) -> None:
        self.error_log.append((code, context))
        if self.on_host_event:
            self.on_host_event("error", f"{code}: {context}")

    def queues_idle(self) -> bool:
        """No queue has work, running or waiting, and no call is pending."""
        return all(q.idle() for q in self.queues.values()) and not self.pending

    def remote_get_field(self, ref: ObjectRef, name: str, ctx):
        return (yield from self.invoke(ref, "$getf", [CharArray.from_str(name)], ctx))

    def remote_set_field(self, ref: ObjectRef, name: str, value, ctx):
        return (yield from self.invoke(ref, "$setf",
                                       [CharArray.from_str(name), value], ctx))
