"""Request trees (paper §III-A).

A peer's request tree has the peer as implicit root and, for each entry
in its incoming request queue (IRQ), a child labelled with the requester
and the requested object; beneath each child hangs the (pruned) request
tree that accompanied that request.  An edge therefore reads "child
requested *object* from parent", and a path root→X of depth *d* closes
into a feasible *d*-way exchange ring whenever X owns something the root
wants.

Trees travel with requests as **frozen snapshots**: when peer R sends a
request it attaches its current tree pruned to ``max_ring - 1`` levels,
so that placed under the recipient's root the composite never exceeds
``max_ring`` levels — the paper's empirical cut-off ("limit the search
for cycles to chains of up to 5 predecessors").

A configurable node budget bounds snapshot size (the paper's §V concedes
the full tree "may be prohibitive" and proposes Bloom filters, which we
implement separately in :mod:`repro.core.bloom_tree`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.irq import IncomingRequestQueue

#: One step of a root→node path: (peer_id, object the peer requested
#: from its path predecessor).
PathStep = Tuple[int, int]
Path = Tuple[PathStep, ...]


class RequestTreeNode:
    """A node of a request tree.

    ``object_id`` is the object this peer requested from its parent;
    it is ``None`` only for the implicit root.

    Nodes are immutable once built (``children`` is a tuple and is never
    reassigned), which is what lets :func:`prune` share whole subtrees
    between snapshots instead of deep-copying them, and what makes the
    cached ``node_count``/``depth`` values safe.
    """

    __slots__ = (
        "peer_id",
        "object_id",
        "children",
        "_node_count",
        "_depth",
        "_peer_set",
        "_occ_cache",
        "_prune_cache",
    )

    def __init__(
        self,
        peer_id: int,
        object_id: Optional[int],
        children: Tuple["RequestTreeNode", ...] = (),
    ) -> None:
        self.peer_id = peer_id
        self.object_id = object_id
        self.children = children
        self._node_count: Optional[int] = None
        self._depth: Optional[int] = None
        #: Root-level caches, shared by every entry holding this
        #: snapshot — one request's fanout attaches the same frozen
        #: tree at ~``request_fanout`` providers, so derived views
        #: (peer set, occurrence indexes) are computed once, not per
        #: provider.  Only populated on roots.
        self._peer_set: Optional[frozenset] = None
        self._occ_cache: Optional[dict] = None
        #: ``(levels, node)``: this subtree's last unbudgeted
        #: :func:`prune` that had to cut it.  Snapshots reuse unchanged
        #: children from their predecessor, so caching per node lets the
        #: pruned views of successive snapshots share nodes too.
        self._prune_cache: Optional[Tuple[int, "RequestTreeNode"]] = None

    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Total nodes in this subtree, root included (cached)."""
        count = self._node_count
        if count is None:
            count = 1
            for child in self.children:
                child_count = child._node_count
                count += child_count if child_count is not None else child.node_count()
            self._node_count = count
        return count

    def depth(self) -> int:
        """Levels in this subtree (a lone root has depth 1; cached)."""
        depth = self._depth
        if depth is None:
            deepest = 0
            for child in self.children:
                child_depth = child._depth
                if child_depth is None:
                    child_depth = child.depth()
                if child_depth > deepest:
                    deepest = child_depth
            depth = 1 + deepest
            self._depth = depth
        return depth

    def occurrence_cache(self) -> dict:
        """The mutable per-root cache used by entry occurrence lookups."""
        cache = self._occ_cache
        if cache is None:
            cache = {}
            self._occ_cache = cache
        return cache

    def iter_nodes(self) -> Iterator["RequestTreeNode"]:
        """Depth-first iteration over this node and its subtree."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    # ------------------------------------------------------------------
    # (de)serialization — used by tests, debugging and the examples
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe nested dict form (tests, debugging, examples)."""
        return {
            "peer": self.peer_id,
            "object": self.object_id,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RequestTreeNode":
        """Rebuild a tree from :meth:`to_dict` output."""
        children = tuple(cls.from_dict(child) for child in data.get("children", ()))
        return cls(data["peer"], data.get("object"), children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestTreeNode(peer={self.peer_id}, object={self.object_id}, "
            f"children={len(self.children)})"
        )


def prune(
    node: RequestTreeNode, levels: int, budget: Optional[List[int]] = None
) -> Optional[RequestTreeNode]:
    """``node`` limited to ``levels`` levels and a shared node budget.

    ``budget`` is a single-element mutable list so recursion shares it;
    pass None for unbounded.  Returns None when levels or budget hit 0.

    A subtree that already fits both bounds is returned *as is* (nodes
    are immutable, so sharing is safe) — identical content to the old
    deep copy, including the preorder truncation shape when the budget
    runs out mid-tree, without allocating a node per level per snapshot.
    A subtree too deep for ``levels`` caches its unbudgeted cut on
    itself, and a budgeted prune adopts that cut whole when it fits.
    """
    if levels <= 0:
        return None
    depth = node._depth
    if depth is None:
        depth = node.depth()
    cached = node._prune_cache
    if cached is not None and cached[0] != levels:
        cached = None
    if budget is None:
        if depth <= levels:
            return node
        if cached is not None:
            return cached[1]
    else:
        remaining = budget[0]
        if remaining <= 0:
            return None
        fitting: Optional[RequestTreeNode] = node
        if depth > levels:
            fitting = cached[1] if cached is not None else None
        if fitting is not None:
            count = fitting._node_count
            if count is None:
                count = fitting.node_count()
            if count <= remaining:
                # Taken whole, node for node as the preorder walk
                # below would take it.
                budget[0] = remaining - count
                return fitting
        budget[0] = remaining - 1
    if levels == 1:  # children could only land at level 0 — drop them
        pruned = RequestTreeNode(node.peer_id, node.object_id, ())
    else:
        children: List[RequestTreeNode] = []
        for child in node.children:
            copied = prune(child, levels - 1, budget)
            if copied is not None:
                children.append(copied)
        pruned = RequestTreeNode(node.peer_id, node.object_id, tuple(children))
    if budget is None:
        node._prune_cache = (levels, pruned)
    return pruned


def build_snapshot(
    peer_id: int,
    irq: "IncomingRequestQueue",
    levels: int,
    node_budget: int,
    previous: Optional[RequestTreeNode] = None,
) -> Optional[RequestTreeNode]:
    """The tree a peer attaches to an outgoing request.

    ``levels`` counts node levels including this peer as the (snapshot)
    root; with the paper's max ring of 5 the snapshot carries
    ``levels = 4``.  Returns None when ``levels <= 0`` (no-exchange or
    ring-size-1 configurations attach nothing).

    Snapshots are **interned by content** against ``previous``, the
    peer's last snapshot: a rebuild equal to it returns ``previous``
    itself, so the root-level caches every provider shares
    (``_peer_set``, the occurrence sub-index, the pruned views) survive
    and the providers holding it need not re-derive them.  A child of
    ``previous`` in the same position is reused when its requester and
    object match and its children equal the rebuilt ones.  That compare
    is cheap: while an entry's tree is unchanged its cached pruned view
    is the very tuple ``previous`` holds, and otherwise the view shares
    every node :func:`prune` did not have to cut anew, so the deep
    compare stops at the first shared node on each branch.
    """
    if levels <= 0:
        return None
    budget = [max(0, node_budget - 1)]  # root consumes one slot
    children: List[RequestTreeNode] = []
    old: Tuple[RequestTreeNode, ...] = previous.children if previous is not None else ()
    reused = previous is not None
    if levels > 1:
        for entry in irq.tree_entries():
            if budget[0] <= 0:
                break
            budget[0] -= 1  # the entry's own node
            child_children: Tuple[RequestTreeNode, ...] = ()
            if entry.tree is not None and levels > 2:
                # Fast path: the entry caches its depth-pruned view;
                # when the whole view fits the remaining budget the
                # budgeted prune below would reproduce it node for
                # node, so the (immutable) view is adopted outright.
                pruned_view, view_count = entry.pruned_children(levels - 2)
                if view_count <= budget[0]:
                    child_children = pruned_view
                    budget[0] -= view_count
                else:
                    grandchildren: List[RequestTreeNode] = []
                    for sub in entry.tree.children:
                        copied = prune(sub, levels - 2, budget)
                        if copied is not None:
                            grandchildren.append(copied)
                    child_children = tuple(grandchildren)
            position = len(children)
            if position < len(old):
                prior = old[position]
                if (
                    prior.peer_id == entry.requester_id
                    and prior.object_id == entry.object_id
                    and (
                        prior.children is child_children
                        or _same_forest(prior.children, child_children)
                    )
                ):
                    children.append(prior)
                    continue
            reused = False
            children.append(
                RequestTreeNode(entry.requester_id, entry.object_id, child_children)
            )
    if reused and len(children) == len(old):
        return previous
    return RequestTreeNode(peer_id, None, tuple(children))


def _same_forest(
    left: Tuple[RequestTreeNode, ...], right: Tuple[RequestTreeNode, ...]
) -> bool:
    """Whether two child tuples hold structurally equal subtrees."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if a is b:
            continue
        if a.peer_id != b.peer_id or a.object_id != b.object_id:
            return False
        if not _same_forest(a.children, b.children):
            return False
    return True


def iter_occurrences(
    requester_id: int, object_id: int, tree: Optional[RequestTreeNode]
) -> Iterator[Tuple[int, Path]]:
    """All (peer, path) occurrences contributed by one IRQ entry.

    The entry itself is the first occurrence (the direct requester at
    composite depth 2, i.e. a pairwise candidate with path length 1);
    deeper occurrences come from the attached snapshot.  Paths with
    repeated peers are *not* yielded — a ring must consist of distinct
    peers, and filtering here keeps the per-entry index clean.
    """
    root_step: PathStep = (requester_id, object_id)
    yield requester_id, (root_step,)
    if tree is None:
        return

    def walk(
        node: RequestTreeNode, path: Tuple[PathStep, ...], seen: frozenset
    ) -> Iterator[Tuple[int, Path]]:
        for child in node.children:
            if child.object_id is None:
                continue  # malformed: non-root without an edge label
            if child.peer_id in seen:
                continue
            step: PathStep = (child.peer_id, child.object_id)
            child_path = path + (step,)
            yield child.peer_id, child_path
            yield from walk(child, child_path, seen | {child.peer_id})

    yield from walk(tree, (root_step,), frozenset((requester_id,)))


def tree_peer_set(
    requester_id: int, tree: Optional[RequestTreeNode]
) -> Set[int]:
    """All peer ids appearing in one entry's composite tree, cheaply.

    A *superset* of :func:`occurrence_index`'s keys: the walk skips the
    duplicate-peer path filter, so a peer reachable only through paths
    that revisit a peer is still included.  The IRQ's inverted index
    tolerates that — a lookup for such a peer just finds no usable path
    — and in exchange the index can be maintained without materializing
    any path tuples, leaving the expensive occurrence indexing to the
    entries a ring search actually touches.
    """
    if tree is None:
        return {requester_id}
    cached = tree._peer_set
    if cached is None:
        acc = {tree.peer_id}
        add = acc.add
        stack: List[RequestTreeNode] = [tree]
        push = stack.append
        pop = stack.pop
        while stack:
            node = pop()
            for child in node.children:
                if child.object_id is None:
                    continue  # malformed: non-root without an edge label
                add(child.peer_id)
                if child.children:
                    push(child)
        cached = frozenset(acc)
        tree._peer_set = cached
    if tree.peer_id == requester_id:
        # The usual case: the snapshot root *is* the requester, so the
        # cached set can be shared as-is (read-only by convention).
        return cached
    peers = set(cached)
    peers.add(requester_id)
    return peers


#: Reserved key under which a root's object-independent sub-index is
#: cached in its occurrence cache (real keys are (peer, object) tuples).
_SUBINDEX_KEY = "subindex"


def occurrence_subindex(
    requester_id: int, tree: Optional[RequestTreeNode]
) -> dict:
    """The (cached) object-independent half of an entry's occurrences.

    ``{peer_id: [subpath, ...]}`` with the root step stripped; shared
    through the root's cache whenever the root *is* the requester (the
    only shape the protocol produces).  Callers must treat the result
    as read-only.
    """
    if tree is None:
        return {}
    if tree.peer_id == requester_id:
        cache = tree.occurrence_cache()
        sub = cache.get(_SUBINDEX_KEY)
        if sub is None:
            sub = _occurrence_subindex(tree, requester_id)
            cache[_SUBINDEX_KEY] = sub
        return sub
    # Hand-built shape: the root is not the requester, so the walk
    # depends on the requester and cannot be shared through the root.
    return _occurrence_subindex(tree, requester_id)


def _occurrence_subindex(tree: RequestTreeNode, requester_id: int) -> dict:
    """``{peer_id: [subpath, ...]}`` of a snapshot, minus the root step.

    The walk's duplicate-peer filter is seeded with the requester; the
    protocol always makes the requester the snapshot root, in which
    case the result is object-independent — only the root step
    (requester, object) differs between the entries sharing one
    snapshot — so one walk per tree serves every (object, provider)
    combination of the requester's fanout, with
    :func:`occurrence_index` just prefixing the root step.
    """
    index: dict = {}
    bucket_of = index.get
    stack: List[Tuple[RequestTreeNode, Path]] = [(tree, ())]
    push = stack.append
    pop = stack.pop
    while stack:
        node, path = pop()
        for child in node.children:
            if child.object_id is None:
                continue  # malformed: non-root without an edge label
            peer_id = child.peer_id
            if peer_id == requester_id:
                continue  # the requester seeds the duplicate filter
            duplicate = False
            for step_peer, _step_object in path:
                if step_peer == peer_id:
                    duplicate = True
                    break
            if duplicate:
                continue
            child_path = path + ((peer_id, child.object_id),)
            bucket = bucket_of(peer_id)
            if bucket is None:
                index[peer_id] = [child_path]
            else:
                bucket.append(child_path)
            if child.children:
                push((child, child_path))
    return index


def occurrence_index(
    requester_id: int, object_id: int, tree: Optional[RequestTreeNode]
) -> dict:
    """``{peer_id: [path, ...]}`` over one entry's occurrences.

    Paths are short (max ring size), so duplicate-peer filtering scans
    the path instead of carrying a set.  When the snapshot root is the
    requester (the only shape the protocol produces), the expensive
    walk is shared through the root's cache and only the per-object
    root-step prefixing happens here.
    """
    root_step: PathStep = (requester_id, object_id)
    index: dict = {requester_id: [(root_step,)]}
    if tree is None:
        return index
    prefix = (root_step,)
    for peer_id, paths in occurrence_subindex(requester_id, tree).items():
        index[peer_id] = [prefix + path for path in paths]
    return index
