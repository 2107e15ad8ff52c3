"""Host identity, handshake, liveness, path gossip, and multi-hop routing.

Neighborhood membership changes only on handshake completion and on
disconnect or ping-timeout detection. Paths to non-neighbors are learned by
gossiping full intermediate paths (a path-vector flavor of distance-vector
with split horizon): a host never advertises to a neighbor a route that runs
through that neighbor, loops are rejected on receipt, and ROUTE frames carry
a TTL so a frame can never circulate during convergence. Replies retrace the
request's recorded path in reverse.
"""

from __future__ import annotations

import hashlib

from ..bio import BadString, ShortRead
from ..errors import (E_CONNECT_REFUSED, E_HANDSHAKE_TIMEOUT,
                      E_HOST_UNREACHABLE, E_HOP_UNREACHABLE, E_NAME_COLLISION,
                      EngineError)
from ..runtime import Future
from .frames import (ERROR, ERROR_PAYLOAD, ErrorInfo, Frame, FrameError,
                     FrameMeta, GOSSIP, GOSSIP_PAYLOAD, HELLO, HELLO_ACK,
                     HELLO_PAYLOAD, Hello, PING, PONG, ROUTE, ROUTE_PAYLOAD,
                     Route, decode_frame_bytes, encode_frame)

ROUTE_TTL = 16
MODE_TABLE = 0
MODE_EXPLICIT = 1


class Router:
    def __init__(self, host_name: str, transport, scheduler, config, engine):
        self.host_name = host_name
        self.transport = transport
        self.scheduler = scheduler
        self.config = config
        self.engine = engine
        engine.port = self

        self.neighbors: dict[str, object] = {}
        self.conn_names: dict[int, str] = {}
        self.missed: dict[str, int] = {}
        self.incarnations: dict[str, int] = {}
        self.routes_via: dict[str, dict[str, tuple[str, ...]]] = {}
        # dest -> (intermediate hops, learned-from neighbor)
        self.path_table: dict[str, tuple[tuple[str, ...], str]] = {}
        self._handshakes: dict[int, tuple] = {}
        self._last_gossip: dict[str, bytes] = {}
        self._forwarded: dict[int, tuple[str, tuple[str, ...], str, int]] = {}
        self._stopped = False

        self._digest = hashlib.sha256(
            b"".join(sorted(self.engine.host_map.grants))).digest()
        self._arm_ping()
        self._arm_gossip()

    # ---------------------------------------------------------------- lifecycle

    def listen(self) -> None:
        if self.config.listen:
            self.transport.listen(self.config.listen, self._on_accept)

    def shutdown(self) -> None:
        """Stop pinging and gossiping, ignore further frames, and close every
        neighbor's connection. Runs on the host's one thread, so no
        handshake can complete in the middle of it."""
        self._stopped = True
        for name in sorted(self.neighbors):
            self.neighbors[name].close()
        self.neighbors.clear()
        self.incarnations.clear()

    def connect(self, endpoint: str):
        """Dial and handshake; returns a Future resolving to the peer name."""
        fut = Future()
        try:
            conn = self.transport.dial(endpoint)
        except EngineError as err:
            fut.fail(err)
            return fut
        conn.on_frame = self._on_frame
        conn.on_close = self._on_conn_close
        timer = self.scheduler.call_later(
            5_000, lambda: self._handshake_timeout(conn))
        self._handshakes[id(conn)] = (fut, timer, conn)
        conn.send_frame(Frame(HELLO, 0, self._hello_payload()))
        return fut

    def _hello_payload(self) -> bytearray:
        return HELLO_PAYLOAD.pack(Hello(self.host_name, self.engine.incarnation,
                                        self._digest))

    def _handshake_timeout(self, conn) -> None:
        entry = self._handshakes.pop(id(conn), None)
        if entry is not None:
            entry[0].fail(EngineError(E_HANDSHAKE_TIMEOUT, "no HELLO_ACK"))
            conn.close()

    def _on_accept(self, conn) -> None:
        conn.on_frame = self._on_frame
        conn.on_close = self._on_conn_close

    # ----------------------------------------------------------------- sending

    def neighbor_names(self) -> list[str]:
        return sorted(self.neighbors)

    def knows(self, name: str) -> bool:
        return name in self.neighbors or name in self.path_table

    def send(self, dst: str, frame: Frame) -> str:
        """Send a request frame toward dst; returns the first hop used."""
        conn = self.neighbors.get(dst)
        if conn is not None:
            conn.send_frame(frame)
            return dst
        entry = self.path_table.get(dst)
        if entry is None:
            raise EngineError(E_HOST_UNREACHABLE, f"no path known to {dst}")
        hops = entry[0]
        first = hops[0]
        conn = self.neighbors.get(first)
        if conn is None:
            raise EngineError(E_HOST_UNREACHABLE, f"route to {dst} lost")
        payload = ROUTE_PAYLOAD.pack(Route(MODE_TABLE, ROUTE_TTL, dst,
                                           self.host_name, [],
                                           encode_frame(frame)))
        conn.send_frame(Frame(ROUTE, frame.corr, payload))
        return first

    def send_via(self, path_hops: list[str], dst: str, frame: Frame) -> None:
        """Send along an explicit hop list (reply retracing its request)."""
        if not path_hops:
            conn = self.neighbors.get(dst)
            if conn is not None:
                conn.send_frame(frame)
                return
            self.send(dst, frame)
            return
        first = path_hops[0]
        conn = self.neighbors.get(first)
        if conn is None:
            self.send(dst, frame)  # stale reverse path: best effort by table
            return
        payload = ROUTE_PAYLOAD.pack(Route(MODE_EXPLICIT, ROUTE_TTL, dst,
                                           self.host_name, path_hops[1:],
                                           encode_frame(frame)))
        conn.send_frame(Frame(ROUTE, frame.corr, payload))

    # ----------------------------------------------------------------- inbound

    def _on_frame(self, conn, frame: Frame) -> None:
        if self._stopped:
            return
        try:
            if frame.kind == HELLO:
                self._on_hello(conn, frame)
            elif frame.kind == HELLO_ACK:
                self._on_hello_ack(conn, frame)
            elif frame.kind == PING:
                conn.send_frame(Frame(PONG, frame.corr, b""))
            elif frame.kind == PONG:
                name = self.conn_names.get(id(conn))
                if name is not None:
                    self.missed[name] = 0
            elif frame.kind == GOSSIP:
                self._on_gossip(conn, frame)
            elif frame.kind == ROUTE:
                self._on_route(conn, frame)
            elif frame.kind == ERROR and id(conn) in self._handshakes:
                fut, timer, _ = self._handshakes.pop(id(conn))
                self.scheduler.cancel(timer)
                code, _, message = ERROR_PAYLOAD.unpack(frame.payload)
                fut.fail(EngineError(code, message))
                conn.close()
            else:
                src = self.conn_names.get(id(conn))
                if src is None:
                    return  # frames before handshake are dropped
                self.engine.handle_wire_frame(frame, FrameMeta(src=src))
        except (ShortRead, BadString, FrameError) as exc:
            self.engine.log_error("BadFrame", f"router: {exc}")

    def _on_conn_close(self, conn) -> None:
        entry = self._handshakes.pop(id(conn), None)
        if entry is not None:
            entry[0].fail(EngineError(E_CONNECT_REFUSED, "closed during handshake"))
        name = self.conn_names.pop(id(conn), None)
        if name is not None and self.neighbors.get(name) is conn:
            self._evict(name, "closed")

    # --------------------------------------------------------------- handshake

    def _on_hello(self, conn, frame: Frame) -> None:
        name, incarnation, _digest = HELLO_PAYLOAD.unpack(frame.payload)
        if name == self.host_name:
            self._refuse(conn, E_NAME_COLLISION, f"both hosts claim '{name}'")
            return
        if name in self.neighbors:
            self._refuse(conn, E_CONNECT_REFUSED, f"'{name}' already connected")
            return
        conn.send_frame(Frame(HELLO_ACK, frame.corr, self._hello_payload()))
        self._register_neighbor(conn, name, incarnation)

    def _on_hello_ack(self, conn, frame: Frame) -> None:
        entry = self._handshakes.pop(id(conn), None)
        if entry is not None:
            self.scheduler.cancel(entry[1])
        name, incarnation, _digest = HELLO_PAYLOAD.unpack(frame.payload)
        # Our dial crossed the peer's dial of us if we took its HELLO first:
        # both hosts then keep the connection that the smaller name dialed.
        crossed = self.incarnations.get(name) == incarnation
        if crossed and self.host_name < name:
            old = self.neighbors[name]
            del self.conn_names[id(old)]
            self.neighbors[name] = conn
            self.conn_names[id(conn)] = name
            old.close()
        elif crossed or name == self.host_name or name in self.neighbors:
            if entry is not None:
                entry[0].fail(
                    EngineError(E_CONNECT_REFUSED, f"'{name}' already connected")
                    if crossed else
                    EngineError(E_NAME_COLLISION, f"peer claims '{name}'"))
            conn.close()
            return
        else:
            self._register_neighbor(conn, name, incarnation)
        if entry is not None:
            entry[0].resolve(name)

    def _refuse(self, conn, code: str, message: str) -> None:
        try:
            conn.send_frame(Frame(ERROR, 0, ERROR_PAYLOAD.pack(
                ErrorInfo(code, "", message))))
        except EngineError:
            pass
        conn.close()

    def _register_neighbor(self, conn, name: str, incarnation: int) -> None:
        self.neighbors[name] = conn
        self.conn_names[id(conn)] = name
        self.incarnations[name] = incarnation
        self.missed[name] = 0
        self.routes_via.setdefault(name, {})
        self._recompute()
        self.engine.on_neighbor_added(name)
        self._gossip_to_all(force_to=name)

    def _evict(self, name: str, reason: str) -> None:
        conn = self.neighbors.pop(name, None)
        if conn is None:
            return
        self.conn_names.pop(id(conn), None)
        self.missed.pop(name, None)
        self.incarnations.pop(name, None)
        self.routes_via.pop(name, None)
        conn.close()
        # report routed frames we forwarded through the lost neighbor
        for corr, (hop, reverse, origin, _t) in list(self._forwarded.items()):
            if hop == name:
                self._forwarded.pop(corr, None)
                self._send_hop_error(corr, reverse, origin)
        self._recompute()
        self.engine.on_neighbor_removed(name)
        self._gossip_to_all()

    # ----------------------------------------------------------------- liveness

    def _arm_ping(self) -> None:
        if self._stopped:
            return
        self.scheduler.call_later(self.config.ping_interval_ms, self._ping_round,
                                  maintenance=True)

    def _ping_round(self) -> None:
        if self._stopped:
            return
        now = self.scheduler.now_ms()
        for name in sorted(self.neighbors):
            if self.missed.get(name, 0) >= self.config.ping_miss_limit:
                self._evict(name, "ping-timeout")
                continue
            conn = self.neighbors[name]
            self.missed[name] = self.missed.get(name, 0) + 1
            try:
                conn.send_frame(Frame(PING, self.engine.next_corr(), b""))
            except EngineError:
                self._evict(name, "send-failed")
        cutoff = now - self.config.call_timeout_ms
        for corr, entry in list(self._forwarded.items()):
            if entry[3] < cutoff:
                self._forwarded.pop(corr, None)
        self._arm_ping()

    # ------------------------------------------------------------------- gossip

    def _arm_gossip(self) -> None:
        if self._stopped:
            return
        self.scheduler.call_later(self.config.gossip_interval_ms,
                                  self._gossip_round, maintenance=True)

    def _gossip_round(self) -> None:
        if self._stopped:
            return
        self._gossip_to_all()
        self._arm_gossip()

    def _gossip_payload_for(self, nb: str) -> bytearray:
        entries = []
        for dest in sorted(self.neighbors):
            if dest != nb:
                entries.append((dest, ()))
        for dest in sorted(self.path_table):
            hops, _ = self.path_table[dest]
            if dest == nb or nb in hops:
                continue  # split horizon
            entries.append((dest, hops))
        entries.sort()
        return GOSSIP_PAYLOAD.pack(entries)

    def _gossip_to_all(self, force_to: str | None = None) -> None:
        for nb in sorted(self.neighbors):
            payload = self._gossip_payload_for(nb)
            if payload == self._last_gossip.get(nb) and nb != force_to:
                continue
            self._last_gossip[nb] = payload
            try:
                self.neighbors[nb].send_frame(
                    Frame(GOSSIP, self.engine.next_corr(), payload))
            except EngineError:
                pass

    def _on_gossip(self, conn, frame: Frame) -> None:
        nb = self.conn_names.get(id(conn))
        if nb is None:
            return
        table: dict[str, tuple[str, ...]] = {}
        for dest, hops in GOSSIP_PAYLOAD.unpack(frame.payload):
            if dest == self.host_name or self.host_name in hops:
                continue
            full = (nb, *hops)
            if dest in full[1:]:
                continue
            table[dest] = full
        self.routes_via[nb] = table
        self._recompute()

    def _recompute(self) -> None:
        new_table: dict[str, tuple[tuple[str, ...], str]] = {}
        for nb in sorted(self.neighbors):
            for dest, full in sorted(self.routes_via.get(nb, {}).items()):
                if dest in self.neighbors or dest == self.host_name:
                    continue
                best = new_table.get(dest)
                if best is None or (len(full), full) < (len(best[0]), best[0]):
                    new_table[dest] = (full, nb)
        if new_table != self.path_table:
            self.path_table = new_table
            self._gossip_to_all()

    # -------------------------------------------------------------------- route

    def _on_route(self, conn, frame: Frame) -> None:
        mode, ttl, target, origin, hops, inner_bytes = ROUTE_PAYLOAD.unpack(
            frame.payload)
        if target == self.host_name:
            try:
                inner = decode_frame_bytes(inner_bytes)
            except FrameError as exc:
                self.engine.log_error("BadFrame", f"routed: {exc}")
                return
            reverse = tuple(reversed(hops)) if mode == MODE_TABLE else ()
            self.engine.handle_wire_frame(inner, FrameMeta(src=origin,
                                                           reverse_path=reverse))
            return
        ttl -= 1
        if ttl <= 0:
            self._send_hop_error(frame.corr, tuple(reversed(hops)), origin)
            return
        if mode == MODE_TABLE:
            nxt = None
            if target in self.neighbors:
                nxt = target
            else:
                entry = self.path_table.get(target)
                if entry is not None and entry[0][0] in self.neighbors:
                    nxt = entry[0][0]
            if nxt is None:
                self._send_hop_error(frame.corr, tuple(reversed(hops)), origin)
                return
            payload = ROUTE_PAYLOAD.pack(Route(
                MODE_TABLE, ttl, target, origin, hops + [self.host_name],
                inner_bytes))
            self._forwarded[frame.corr] = (nxt, tuple(reversed(hops)), origin,
                                           self.scheduler.now_ms())
            try:
                self.neighbors[nxt].send_frame(Frame(ROUTE, frame.corr, payload))
            except EngineError:
                self._send_hop_error(frame.corr, tuple(reversed(hops)), origin)
        else:
            nxt = hops[0] if hops else target
            remaining = hops[1:] if hops else []
            conn2 = self.neighbors.get(nxt)
            if conn2 is None:
                # stale reverse path; try the live table toward the target
                try:
                    inner = decode_frame_bytes(inner_bytes)
                    self.send(target, inner)
                except (EngineError, FrameError):
                    pass
                return
            payload = ROUTE_PAYLOAD.pack(Route(
                MODE_EXPLICIT, ttl, target, origin, remaining, inner_bytes))
            try:
                conn2.send_frame(Frame(ROUTE, frame.corr, payload))
            except EngineError:
                pass

    def _send_hop_error(self, corr: int, reverse: tuple[str, ...],
                        origin: str) -> None:
        err = Frame(ERROR, corr, ERROR_PAYLOAD.pack(ErrorInfo(
            E_HOP_UNREACHABLE, "", f"hop {self.host_name} could not forward")))
        try:
            self.send_via(list(reverse), origin, err)
        except EngineError:
            pass
