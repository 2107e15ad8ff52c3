"""Graph-ordered group traversal (the .+ operator).

A traversal runs the iterator method on the starting node, then forwards
itself to other hosts as `$traverse` requests. Each request carries the
traversal id and a token: the names of the hosts that its receiver leaves
to others. A host runs the iterator, forwards, and reports its collected
(host, error-code) failures only after every host it forwarded to has
reported. So the caller gets control back when every reachable node is
done, and a non-empty failure list surfaces as PartialFailure.

How a host forwards depends on the group:
- The builtin hosts group forwards along a breadth-first spanning tree:
  propagation of information with feedback (Segall, "Distributed Network
  Protocols", 1983). The host plans the tree over the links it knows
  (`Engine.hosts_group_view`), leaving out the hosts in its token, and sends
  each tree child the token "every host but those below you". When the hosts
  agree on the graph, each host is sent exactly one `$traverse`. A host
  outside the token that the tree cannot reach is sent one directly, routed
  by the path table; a child that no plan names is forwarded to as below.
- A user-defined group forwards to every child its `children` method names
  whose host is not in the token, with the token "my token, me and all my
  children's hosts": Chang's echo algorithm ("Echo Algorithms", 1982). It
  sends on every edge, so a host can be sent one traversal more than once.
A host runs the iterator at most once per traversal: `Engine.mark_traversal`
turns a repeat away with the empty failure list. When hosts disagree
on the graph (a link just made, or lost and not yet evicted), what holds is
this: a traversal that returns normally ran the iterator exactly once on
every reachable host; after a PartialFailure, the hosts below a failed
child may not have run.
"""

from __future__ import annotations

from .errors import E_PARTIAL_FAILURE, E_REMOTE, EngineError
from .frontend.types import HOST_GROUP_KEY
from .stdlib import hosts_node_ref
from .values import Array, CharArray, ObjectRef, TAG_ARRAY


def _encode_failures(failures: list[tuple[str, str]]) -> Array:
    return Array(TAG_ARRAY, [
        Array(TAG_ARRAY, [CharArray.from_str(host), CharArray.from_str(code)])
        for host, code in failures])


def decode_failures(value) -> list[tuple[str, str]]:
    out = []
    if isinstance(value, Array):
        for pair in value.items:
            if isinstance(pair, Array) and len(pair.items) == 2:
                out.append((pair.items[0].to_str(), pair.items[1].to_str()))
    return out


def iterate(engine, ctx, group_ref: ObjectRef, method: str, args: list):
    """Entry point for a traversal started at this engine."""
    tid = f"{engine.host_name}:{engine.next_traversal_id()}"
    if group_ref is None:
        raise EngineError("NullReference", "iterate on a null group")
    if group_ref.host == engine.host_name:
        result = yield from run_node(engine, ctx, group_ref, method, args, tid, [])
    else:
        fut = engine.start_traverse(group_ref, method, args, tid, [], ctx)
        result = yield from engine.reply_value(fut, group_ref.host, ctx)
    failures = decode_failures(result)
    if failures:
        raise EngineError(E_PARTIAL_FAILURE,
                          "; ".join(f"{h}: {c}" for h, c in failures),
                          failures=failures)
    return None


def plan_hosts_tree(engine, token: set[str]):
    """The forwards of a hosts-group traversal from this host, whose token
    is `token` (this host included): one per child of a breadth-first tree
    over the links this host knows that avoids the token's hosts, and one
    per host outside the token that the tree does not reach. Returns the
    (node, token) pairs and every host name the plan accounted for."""
    names, links = engine.hosts_group_view()
    adjacent: dict[str, set[str]] = {}
    for a, b in links:
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    everyone = names | token
    # host -> the tree child whose subtree holds it (None for this host)
    branch: dict[str, str | None] = {engine.host_name: None}
    subtrees: dict[str, set[str]] = {}  # tree child -> its subtree
    frontier = [engine.host_name]
    while frontier:
        reached = []
        for host in frontier:
            for peer in sorted(adjacent.get(host, ())):
                if peer in branch or peer in token:
                    continue
                child = branch[host] or peer
                branch[peer] = child
                subtrees.setdefault(child, set()).add(peer)
                reached.append(peer)
        frontier = reached
    # a token names its receiver too, as the echo algorithm's tokens do
    sends = [(hosts_node_ref(child), sorted((everyone - subtree) | {child}))
             for child, subtree in subtrees.items()]
    for host in sorted(names - token - branch.keys()):
        sends.append((hosts_node_ref(host), sorted(everyone)))
    return sends, everyone


def run_node(engine, ctx, node_ref: ObjectRef, method: str, args: list,
             tid: str, visited: list[str]):
    """Visit the local node of one traversal: run the iterator once, then
    forward as the module docstring says, leaving out the hosts in the
    token `visited`, and wait for every forward. Returns the collected
    (host, error-code) failure pairs."""
    if not engine.mark_traversal(tid):
        return _encode_failures([])
    failures: list[tuple[str, str]] = []
    try:
        yield from engine.invoke(node_ref, method, list(args), ctx)
    except EngineError as err:
        failures.append((engine.host_name, err.remote_code or err.code))

    children = None
    try:
        children = yield from engine.invoke(node_ref, "children", [], ctx)
    except EngineError as err:
        failures.append((engine.host_name, err.remote_code or err.code))

    covered = set(visited)
    covered.add(engine.host_name)
    sends = []
    if node_ref.cls == HOST_GROUP_KEY:
        sends, covered = plan_hosts_tree(engine, covered)
    echo: list[ObjectRef] = []
    if isinstance(children, Array):
        for child in children.items:
            if isinstance(child, ObjectRef) and child.host not in covered:
                covered.add(child.host)
                echo.append(child)
    token = sorted(covered)
    sends.extend((child, token) for child in echo)

    pending = []
    for child, child_token in sends:
        try:
            fut = engine.start_traverse(child, method, args, tid, child_token, ctx)
            pending.append((child, fut))
        except EngineError as err:
            failures.append((child.host, err.code))
    for child, fut in pending:
        try:
            sub = yield from engine.reply_value(fut, child.host, ctx)
            failures.extend(decode_failures(sub))
        except EngineError as err:
            code = err.remote_code if err.code == E_REMOTE and err.remote_code else err.code
            failures.append((child.host, code))
    return _encode_failures(failures)
