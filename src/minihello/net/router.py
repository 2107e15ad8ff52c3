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

from ..bio import Reader, ShortRead, Writer
from ..errors import (E_CONNECT_REFUSED, E_HANDSHAKE_TIMEOUT,
                      E_HOST_UNREACHABLE, E_HOP_UNREACHABLE, E_NAME_COLLISION,
                      EngineError)
from .frames import (ERROR, Frame, FrameError, GOSSIP, HELLO, HELLO_ACK, PING,
                     PONG, ROUTE, decode_frame_bytes, encode_frame,
                     error_payload, read_error)

ROUTE_TTL = 16
MODE_TABLE = 0
MODE_EXPLICIT = 1


def _hello_payload(name: str, incarnation: int, digest: bytes) -> bytes:
    w = Writer()
    w.wstr(name)
    w.u64(incarnation)
    w.raw(digest)
    return w.getvalue()


def _route_payload(mode: int, ttl: int, target: str, origin: str,
                   hops: list[str], inner: bytes) -> bytes:
    w = Writer()
    w.u8(mode)
    w.u8(ttl)
    w.wstr(target)
    w.wstr(origin)
    w.u16(len(hops))
    for h in hops:
        w.wstr(h)
    w.lp_bytes(inner)
    return w.getvalue()


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
        self.liveness_ms: dict[str, int] = {}
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
        self._stopped = True
        for name in sorted(self.neighbors):
            conn = self.neighbors.get(name)
            if conn is None:  # a reader thread dropped it as its peer closed
                continue
            try:
                conn.close()
            except Exception:
                pass
        self.neighbors.clear()

    def connect(self, endpoint: str):
        """Dial and handshake; returns a Future resolving to the peer name."""
        from ..runtime import Future
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
        if hasattr(self.transport, "start_dialed"):
            self.transport.start_dialed(conn)
        conn.send_frame(Frame(HELLO, 0, _hello_payload(
            self.host_name, self.engine.incarnation, self._digest)))
        return fut

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
        payload = _route_payload(MODE_TABLE, ROUTE_TTL, dst, self.host_name,
                                 [], encode_frame(frame))
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
        payload = _route_payload(MODE_EXPLICIT, ROUTE_TTL, dst, self.host_name,
                                 list(path_hops[1:]), encode_frame(frame))
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
                    self.liveness_ms[name] = self.scheduler.now_ms()
            elif frame.kind == GOSSIP:
                self._on_gossip(conn, frame)
            elif frame.kind == ROUTE:
                self._on_route(conn, frame)
            elif frame.kind == ERROR and id(conn) in self._handshakes:
                fut, timer, _ = self._handshakes.pop(id(conn))
                self.scheduler.cancel(timer)
                code, _, message = read_error(frame.payload)
                fut.fail(EngineError(code, message))
                conn.close()
            else:
                src = self.conn_names.get(id(conn))
                if src is None:
                    return  # frames before handshake are dropped
                from ..engine.engine import FrameMeta
                self.engine.handle_wire_frame(frame, FrameMeta(src=src))
        except (ShortRead, FrameError) as exc:
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
        r = Reader(frame.payload)
        name = r.wstr()
        r.u64()  # peer incarnation, recorded implicitly by liveness
        if name == self.host_name:
            self._refuse(conn, E_NAME_COLLISION, f"both hosts claim '{name}'")
            return
        if name in self.neighbors:
            self._refuse(conn, E_CONNECT_REFUSED, f"'{name}' already connected")
            return
        conn.send_frame(Frame(HELLO_ACK, frame.corr, _hello_payload(
            self.host_name, self.engine.incarnation, self._digest)))
        self._register_neighbor(conn, name)

    def _on_hello_ack(self, conn, frame: Frame) -> None:
        entry = self._handshakes.pop(id(conn), None)
        r = Reader(frame.payload)
        name = r.wstr()
        if name == self.host_name or name in self.neighbors:
            if entry is not None:
                self.scheduler.cancel(entry[1])
                entry[0].fail(EngineError(E_NAME_COLLISION,
                                          f"peer claims '{name}'"))
            conn.close()
            return
        self._register_neighbor(conn, name)
        if entry is not None:
            self.scheduler.cancel(entry[1])
            entry[0].resolve(name)

    def _refuse(self, conn, code: str, message: str) -> None:
        try:
            conn.send_frame(Frame(ERROR, 0, error_payload(code, message)))
        except EngineError:
            pass
        conn.close()

    def _register_neighbor(self, conn, name: str) -> None:
        self.neighbors[name] = conn
        if self._stopped:
            # shutdown() ran on another thread after this handshake passed
            # its check and may have missed the connection: close it here.
            self.neighbors.pop(name, None)
            conn.close()
            return
        self.conn_names[id(conn)] = name
        self.missed[name] = 0
        self.liveness_ms[name] = self.scheduler.now_ms()
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
        self.liveness_ms.pop(name, None)
        self.routes_via.pop(name, None)
        try:
            conn.close()
        except Exception:
            pass
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

    def _gossip_payload_for(self, nb: str) -> bytes:
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
        w = Writer()
        w.u16(len(entries))
        for dest, hops in entries:
            w.wstr(dest)
            w.u8(len(hops))
            for h in hops:
                w.wstr(h)
        return w.getvalue()

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
        r = Reader(frame.payload)
        table: dict[str, tuple[str, ...]] = {}
        for _ in range(r.u16()):
            dest = r.wstr()
            hops = tuple(r.wstr() for _ in range(r.u8()))
            if dest == self.host_name or self.host_name in hops:
                continue
            full = (nb,) + hops
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
        r = Reader(frame.payload)
        mode = r.u8()
        ttl = r.u8()
        target = r.wstr()
        origin = r.wstr()
        hops = [r.wstr() for _ in range(r.u16())]
        inner_bytes = r.lp_bytes()
        if target == self.host_name:
            try:
                inner = decode_frame_bytes(inner_bytes)
            except FrameError as exc:
                self.engine.log_error("BadFrame", f"routed: {exc}")
                return
            reverse = tuple(reversed(hops)) if mode == MODE_TABLE else ()
            from ..engine.engine import FrameMeta
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
            new_hops = hops + [self.host_name]
            payload = _route_payload(MODE_TABLE, ttl, target, origin, new_hops,
                                     inner_bytes)
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
            payload = _route_payload(MODE_EXPLICIT, ttl, target, origin,
                                     remaining, inner_bytes)
            try:
                conn2.send_frame(Frame(ROUTE, frame.corr, payload))
            except EngineError:
                pass

    def _send_hop_error(self, corr: int, reverse: tuple[str, ...],
                        origin: str) -> None:
        err = Frame(ERROR, corr, error_payload(
            E_HOP_UNREACHABLE, f"hop {self.host_name} could not forward"))
        try:
            self.send_via(list(reverse), origin, err)
        except EngineError:
            pass
