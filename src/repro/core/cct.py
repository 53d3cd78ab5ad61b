"""The calling context tree (CCT).

The CCT is built by inserting unified call paths from DLMonitor and collapsing
frames that refer to the same location (paper Figure 5).  Each node keeps two
metric sets:

* ``exclusive`` — observations attributed directly to this node (e.g. the GPU
  time of a kernel whose call path ends here);
* ``inclusive`` — a *lazily materialized* view of the same observations rolled
  up from every descendant, so any frame can answer "how much time was spent
  underneath me".

Attribution is O(1) per observation: ``attribute``/``attribute_many`` only
touch the target node's exclusive aggregates, record the node in a dirty set
and bump the tree's generation counter.  The inclusive view is (re)built on
first access: the first materialization is a single bottom-up pass over the
tree (a parallel Welford merge per edge); subsequent refreshes are
*incremental* — only the dirty nodes and their ancestor chains are recombined
(each from its children's still-valid cached inclusives), so a handful of
attributions between queries costs O(depth) instead of O(tree).  The view
stays valid until the next insert or attribution.  This keeps the cost of online
aggregation bounded by the number of *distinct calling contexts* — the
property the paper's overhead claims (Figure 6a–d) rest on — instead of
paying an O(depth) ancestor walk on every observation.

The tree additionally maintains kind-indexed node registries (kernels,
operators, scopes, per-``FrameKind`` lists) updated at insertion time, so the
query layer and the analyzers never need a full pre-order scan for the common
"all nodes of kind X" lookups, and every node stores its depth at
construction.  Serialization is iterative (no recursion limit on deep traces)
and a compact columnar encoding that omits the recomputable inclusive view is
available through :meth:`CallingContextTree.to_columnar`.

For multi-thread collection the module provides
:class:`ShardedCallingContextTree`: each simulated CPU thread owns a private
``CallingContextTree`` shard, collectors attribute into the shard of the
launching/observing thread with no cross-thread coordination, and queries run
against a merged tree that is materialized lazily — keyed by the shards'
generation counters — by structurally unioning the shards on
``Frame.identity()`` (:meth:`CallingContextTree.merge_from`) and combining
metrics with ``MetricSet.merge``.  A sharded tree with a single shard is
byte-for-byte equivalent to the plain single-tree model.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from ..dlmonitor.callpath import CallPath, Frame, FrameKind, root_frame
from .metrics import MetricAggregate, MetricSet

_node_ids = itertools.count(1)

COLUMNAR_TREE_FORMAT = "cct-columnar-v1"


class CCTNode:
    """One node of the calling context tree."""

    __slots__ = ("node_id", "frame", "parent", "children", "depth",
                 "exclusive", "_inclusive", "tree")

    def __init__(self, frame: Frame, parent: Optional["CCTNode"] = None,
                 tree: Optional["CallingContextTree"] = None) -> None:
        self.node_id = next(_node_ids)
        self.frame = frame
        self.parent = parent
        self.depth = parent.depth + 1 if parent is not None else 0
        self.tree = tree if tree is not None else (parent.tree if parent is not None else None)
        self.children: Dict[Tuple, "CCTNode"] = {}
        self.exclusive = MetricSet()
        self._inclusive = MetricSet()

    # -- structure ----------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.frame.name

    @property
    def kind(self) -> FrameKind:
        return self.frame.kind

    @property
    def inclusive(self) -> MetricSet:
        """Rolled-up metrics of this node's subtree (materialized on demand).

        Accessing this property refreshes the lazy view if the tree changed.
        A held ``MetricSet`` reference keeps its identity across refreshes,
        but is only guaranteed current as of the last ``inclusive`` access on
        *some* node — hold the node and re-read ``node.inclusive`` after
        mutations instead of caching the set across them.
        """
        tree = self.tree
        if tree is not None:
            tree.ensure_inclusive()
        return self._inclusive

    def child_for(self, frame: Frame) -> "CCTNode":
        """Find or create the child that collapses with ``frame``."""
        key = frame.identity()
        child = self.children.get(key)
        if child is None:
            child = CCTNode(frame, parent=self)
            self.children[key] = child
            if self.tree is not None:
                self.tree._register_node(child)
        return child

    def ancestors(self) -> Iterator["CCTNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def path_from_root(self) -> List["CCTNode"]:
        nodes = [self]
        nodes.extend(self.ancestors())
        nodes.reverse()
        return nodes

    def callpath(self) -> CallPath:
        return CallPath.of(node.frame for node in self.path_from_root())

    # -- metrics --------------------------------------------------------------------

    def gpu_time(self) -> float:
        return self.inclusive.sum("gpu_time")

    def cpu_time(self) -> float:
        return self.inclusive.sum("cpu_time")

    def kernel_count(self) -> int:
        return int(self.inclusive.sum("kernel_count"))

    def metric(self, name: str, inclusive: bool = True) -> float:
        metric_set = self.inclusive if inclusive else self.exclusive
        return metric_set.sum(name)

    def __repr__(self) -> str:
        return f"CCTNode(#{self.node_id} {self.frame.label()!r}, children={len(self.children)})"


class CallingContextTree:
    """The profile's calling context tree with online metric aggregation."""

    #: True on trees built by ``ShardedCallingContextTree.merged()`` — such
    #: trees are discardable query caches and must never be attributed into.
    is_merged_view = False

    def __init__(self, program_name: str = "program") -> None:
        self.insertions = 0
        #: Node→parent merges performed by inclusive-view materializations.
        self.propagations = 0
        self._generation = 0
        self._inclusive_generation = -1
        #: Every node in registration order; parents always precede children.
        self._registry: List[CCTNode] = []
        self._by_kind: Dict[FrameKind, List[CCTNode]] = {}
        self._operator_index: List[CCTNode] = []
        self._scope_index: List[CCTNode] = []
        self._max_depth = 0
        self._size_cache: Tuple[Tuple[int, int], int] = ((-1, -1), 0)
        #: Nodes whose exclusive metrics changed since the last inclusive
        #: materialization (id → node); consumed by the incremental refresh.
        self._dirty: Dict[int, CCTNode] = {}
        #: Memoized ``aggregate_by_name`` results keyed by (kind, metric),
        #: each entry stamped with the generation it was computed at.
        self._aggregate_cache: Dict[Tuple, Tuple[int, Dict[str, float]]] = {}
        #: Memoized ``total_metric`` sums (generation-stamped).
        self._total_cache: Dict[str, Tuple[int, float]] = {}
        self.root = CCTNode(root_frame(program_name), tree=self)
        self._register_node(self.root)

    # -- construction --------------------------------------------------------------

    def _register_node(self, node: CCTNode) -> None:
        """Index a freshly created node and invalidate derived views."""
        self._registry.append(node)
        kind = node.frame.kind
        bucket = self._by_kind.get(kind)
        if bucket is None:
            bucket = self._by_kind[kind] = []
        bucket.append(node)
        if kind == FrameKind.FRAMEWORK:
            if node.frame.tag == "scope":
                self._scope_index.append(node)
            else:
                self._operator_index.append(node)
        if node.depth > self._max_depth:
            self._max_depth = node.depth
        self._generation += 1

    def insert(self, callpath: CallPath) -> CCTNode:
        """Insert a call path, collapsing frames that refer to the same location.

        The call path's own root frame (kind ``ROOT``) collapses with the tree
        root; remaining frames create or reuse children level by level.
        Returns the leaf node.

        A path from the call-path cache carries a leaf cursor: once it has
        been walked in this tree, later inserts return the node it reached
        without walking again.  Nodes are never removed from a live tree, so
        the cursor stays valid for as long as the cache holds the path.
        """
        self.insertions += 1
        cursor = callpath.cursor
        if cursor is not None:
            node = cursor.node
            if node is not None and node.tree is self:
                return node
        node = self.root
        for frame in callpath:
            if frame.kind == FrameKind.ROOT:
                continue
            node = node.child_for(frame)
        if cursor is not None:
            cursor.node = node
        return node

    def attribute(self, node: CCTNode, metric: str, value: float) -> None:
        """Fold one observation into ``node``'s exclusive aggregates (O(1))."""
        node.exclusive.add(metric, value)
        self._dirty[id(node)] = node
        self._generation += 1

    def attribute_many(self, node: CCTNode, metrics: Mapping[str, float]) -> None:
        """Fold several metrics of one record into ``node`` in a single call."""
        node.exclusive.add_many(metrics)
        self._dirty[id(node)] = node
        self._generation += 1

    def insert_and_attribute(self, callpath: CallPath, metrics: Mapping[str, float]) -> CCTNode:
        """Insert a call path and attribute several metrics to its leaf at once."""
        node = self.insert(callpath)
        self.attribute_many(node, metrics)
        return node

    # -- lazy inclusive view ---------------------------------------------------------

    def ensure_inclusive(self) -> None:
        """Materialize the inclusive view if any insert/attribute made it stale."""
        if self._inclusive_generation != self._generation:
            self._materialize_inclusive()
            self._inclusive_generation = self._generation

    def _materialize_inclusive(self) -> None:
        """Bring the inclusive view up to date, incrementally when possible.

        The first materialization (and any refresh where most of the tree is
        dirty) runs the full bottom-up pass.  Otherwise only the *affected*
        region — the dirty nodes plus their ancestor chains up to the root
        (equivalently, the subtrees hanging off the lowest dirty ancestors) —
        is recombined: each affected node is reset to its exclusive metrics
        and re-merged from its children, whose inclusives are either freshly
        recomputed (affected, deeper, processed first) or still-valid cached
        values.  Inserts alone never dirty anything: a new node's empty
        inclusive already equals its empty exclusive, and its ancestors'
        rollups are unchanged until the node is attributed into.
        """
        if self._inclusive_generation < 0:
            self._materialize_full()
            return
        dirty = self._dirty
        if not dirty:
            return  # structure-only changes: cached rollups are still exact
        registry = self._registry
        affected: Dict[int, CCTNode] = {}
        for node in dirty.values():
            while node is not None and id(node) not in affected:
                affected[id(node)] = node
                node = node.parent
        if 2 * len(affected) >= len(registry):
            self._materialize_full()
            return
        propagations = 0
        # Deeper nodes first: every affected child is recombined before the
        # parent that merges it (ancestors are strictly shallower).
        for node in sorted(affected.values(), key=lambda entry: -entry.depth):
            inclusive = node._inclusive
            inclusive.reset_to(node.exclusive)
            for child in node.children.values():
                inclusive.merge(child._inclusive)
                propagations += 1
        self.propagations += propagations
        dirty.clear()

    def _materialize_full(self) -> None:
        """One bottom-up pass: inclusive = exclusive + Σ children's inclusive.

        Each node's inclusive MetricSet (and its aggregates) is reset *in
        place* rather than rebound, so references obtained from an earlier
        ``node.inclusive`` keep reading current data after re-materialization.
        """
        registry = self._registry
        for node in registry:
            node._inclusive.reset_to(node.exclusive)
        propagations = 0
        # Parents precede children in the registry, so the reverse order visits
        # every child before its parent — a single linear merge pass.
        for node in reversed(registry):
            parent = node.parent
            if parent is not None:
                parent._inclusive.merge(node._inclusive)
                propagations += 1
        self.propagations += propagations
        self._dirty.clear()

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every insert/attribute (cache key)."""
        return self._generation

    # -- shard union -----------------------------------------------------------------

    def merge_from(self, other: "CallingContextTree") -> Dict[int, CCTNode]:
        """Structurally union ``other`` into this tree (shard merge primitive).

        Nodes are matched level by level on ``Frame.identity()`` — the same
        collapsing rule ``insert`` uses — creating missing children as needed,
        and every matched node's exclusive aggregates are combined with the
        parallel Welford ``MetricSet.merge``.  Because the lazy inclusive view
        is rebuilt from exclusive data only, merging shards in any order
        yields the same tree a single shared tree would have produced from the
        same observations (to floating-point accuracy).  ``other`` is not
        modified.  Returns the ``id(other node) → this tree's node`` mapping
        (one entry per node of ``other``, root included), which the sharded
        tree keeps to refresh merged metrics incrementally.
        """
        mapping: Dict[int, CCTNode] = {id(other.root): self.root}
        dirty = self._dirty
        self.root.exclusive.merge(other.root.exclusive)
        dirty[id(self.root)] = self.root
        # Parents precede children in the registry, so every node's parent is
        # already mapped when the node is visited — one linear pass, no
        # recursion, no per-node path reconstruction.
        for node in other._registry:
            if node is other.root:
                continue
            mine = mapping[id(node.parent)].child_for(node.frame)
            mine.exclusive.merge(node.exclusive)
            dirty[id(mine)] = mine
            mapping[id(node)] = mine
        self.insertions += other.insertions
        self._generation += 1  # metric merges above bypass attribute()
        return mapping

    # -- traversal --------------------------------------------------------------------

    def nodes(self) -> Iterator[CCTNode]:
        """Depth-first, pre-order traversal of every node (root included)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def bfs(self) -> Iterator[CCTNode]:
        """Breadth-first traversal (the order the analyzer's examples use)."""
        queue = deque((self.root,))
        while queue:
            node = queue.popleft()
            yield node
            queue.extend(node.children.values())

    def all_nodes(self) -> List[CCTNode]:
        """Every node in registration order (no traversal; parents first)."""
        return list(self._registry)

    def leaves(self) -> Iterator[CCTNode]:
        for node in self._registry:
            if not node.children:
                yield node

    def find(self, predicate: Callable[[CCTNode], bool]) -> List[CCTNode]:
        return [node for node in self._registry if predicate(node)]

    def nodes_of_kind(self, kind: FrameKind) -> List[CCTNode]:
        return list(self._by_kind.get(kind, ()))

    @property
    def kernels(self) -> List[CCTNode]:
        """All GPU-kernel nodes (the analyzer's ``call_tree.kernels``)."""
        return self.nodes_of_kind(FrameKind.GPU_KERNEL)

    @property
    def operators(self) -> List[CCTNode]:
        """All framework-operator nodes (excluding module scopes)."""
        return list(self._operator_index)

    @property
    def scopes(self) -> List[CCTNode]:
        """Module / semantic scope nodes (``loss_fn``, layer names, ...)."""
        return list(self._scope_index)

    def node_count(self) -> int:
        return len(self._registry)

    def max_depth(self) -> int:
        return self._max_depth

    # -- aggregation views ----------------------------------------------------------------

    def aggregate_by_name(self, kind: Optional[FrameKind] = None,
                          metric: str = "gpu_time") -> Dict[str, float]:
        """Sum an exclusive metric across all nodes sharing the same frame name.

        This is the bottom-up view's aggregation: the same kernel called from
        many contexts is folded into a single row.  With a ``kind`` the scan is
        restricted to that kind's index instead of the whole tree.

        Rows are gated on the observation *count*, not the metric sum: a
        kernel whose durations all round to 0.0 was still observed and must
        appear in bottom-up views instead of silently vanishing.

        Results are memoized behind the generation counter (the same
        invalidation scheme ``approximate_size_bytes`` uses), so the repeated
        bottom-up queries the GUI and analyzers issue between mutations cost
        one dict copy instead of a registry scan.
        """
        key = (kind, metric)
        cached = self._aggregate_cache.get(key)
        if cached is not None and cached[0] == self._generation:
            return dict(cached[1])
        nodes: Iterable[CCTNode]
        nodes = self._by_kind.get(kind, ()) if kind is not None else self._registry
        totals: Dict[str, float] = {}
        for node in nodes:
            aggregate = node.exclusive.get(metric)
            if aggregate is not None and aggregate.count > 0:
                totals[node.name] = totals.get(node.name, 0.0) + aggregate.total
        self._aggregate_cache[key] = (self._generation, totals)
        return dict(totals)

    def total_metric(self, metric: str) -> float:
        """Whole-profile total of ``metric`` (≡ the root's inclusive sum).

        Computed as the registry-order sum of exclusive aggregates (memoized
        behind the generation counter): summary probes — ``total_gpu_time``
        and friends — never force an inclusive materialization, and the
        summation order is identical for a live tree and for any reloaded
        encoding of it (registries round-trip in order), so totals and the
        fractions derived from them compare bit-for-bit across formats.
        """
        cached = self._total_cache.get(metric)
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        total = 0.0
        for node in self._registry:
            total += node.exclusive.sum(metric)
        self._total_cache[metric] = (self._generation, total)
        return total

    # -- serialization -----------------------------------------------------------------------

    @staticmethod
    def _encode_frame(frame: Frame) -> Dict:
        return {
            "name": frame.name,
            "kind": frame.kind.value,
            "file": frame.file,
            "line": frame.line,
            "library": frame.library,
            "pc": frame.pc,
            "tag": frame.tag,
        }

    @staticmethod
    def _decode_frame(node_data: Mapping) -> Frame:
        # Deliberately not interned: each loaded tree builds every frame once,
        # and interning here would pin frames of long-discarded profiles in
        # the process-global table (GUI/server processes load many profiles).
        return Frame(
            kind=FrameKind(node_data["kind"]),
            name=node_data["name"],
            file=node_data.get("file", ""),
            line=node_data.get("line", 0),
            library=node_data.get("library", ""),
            pc=node_data.get("pc", 0),
            tag=node_data.get("tag", ""),
        )

    def to_dict(self) -> Dict:
        """Nested-dict encoding (the original on-disk format), iteratively built.

        Each node additionally carries its registration index (``order``) so a
        reloaded tree's registries — and therefore every index-backed query —
        enumerate in the same order as the live tree's.
        """
        self.ensure_inclusive()
        order_of = {id(node): index for index, node in enumerate(self._registry)}

        def encode(node: CCTNode) -> Dict:
            entry = self._encode_frame(node.frame)
            entry["order"] = order_of[id(node)]
            entry["exclusive"] = node.exclusive.as_dict()
            entry["inclusive"] = node._inclusive.as_dict()
            entry["children"] = []
            return entry

        root_entry = encode(self.root)
        stack: List[Tuple[CCTNode, Dict]] = [(self.root, root_entry)]
        while stack:
            node, entry = stack.pop()
            children_out = entry["children"]
            for child in node.children.values():
                child_entry = encode(child)
                children_out.append(child_entry)
                stack.append((child, child_entry))
        return {"root": root_entry, "insertions": self.insertions}

    @classmethod
    def from_dict(cls, data: Dict) -> "CallingContextTree":
        tree = cls()
        tree._clear_indexes()
        # Iterative pre-order rebuild; pushing children reversed preserves
        # sibling order in each parent's (insertion-ordered) child dict.
        # Registration is deferred so the registries can be rebuilt in the
        # stored creation order (files without "order" fall back to pre-order,
        # which equally keeps parents ahead of their children).
        decoded: List[Tuple[int, int, CCTNode]] = []
        stack: List[Tuple[Dict, Optional[CCTNode]]] = [(data["root"], None)]
        while stack:
            node_data, parent = stack.pop()
            frame = cls._decode_frame(node_data)
            node = CCTNode(frame, parent=parent, tree=tree)
            node.exclusive = MetricSet.from_dict(node_data.get("exclusive", {}))
            node._inclusive = MetricSet.from_dict(node_data.get("inclusive", {}))
            position = len(decoded)
            decoded.append((node_data.get("order", position), position, node))
            if parent is None:
                tree.root = node
            else:
                parent.children[frame.identity()] = node
            children = node_data.get("children", [])
            for child_data in reversed(children):
                stack.append((child_data, node))
        decoded.sort()
        for _order, _position, node in decoded:
            tree._register_node(node)
        tree.insertions = data.get("insertions", 0)
        # The stored inclusive view is authoritative for what was saved; mark
        # it fresh so round-trips reproduce the input byte for byte.
        tree._inclusive_generation = tree._generation
        return tree

    def _clear_indexes(self) -> None:
        self._registry.clear()
        self._by_kind.clear()
        self._operator_index.clear()
        self._scope_index.clear()
        self._max_depth = 0
        self._size_cache = ((-1, -1), 0)
        self._dirty.clear()
        self._aggregate_cache.clear()
        self._total_cache.clear()

    # -- columnar serialization ---------------------------------------------------------------

    def to_columnar(self) -> Dict:
        """Compact columnar encoding: flat frame columns + exclusive metrics only.

        The inclusive view is omitted (it is recomputed lazily on load), which
        roughly halves the metric payload relative to :meth:`to_dict`.
        """
        registry = self._registry
        index_of = {id(node): index for index, node in enumerate(registry)}
        frames: Dict[str, List] = {
            "kind": [], "name": [], "file": [], "line": [],
            "library": [], "pc": [], "tag": [], "parent": [],
        }
        metric_columns: Dict[str, Dict[str, List[float]]] = {}
        for index, node in enumerate(registry):
            frame = node.frame
            frames["kind"].append(frame.kind.value)
            frames["name"].append(frame.name)
            frames["file"].append(frame.file)
            frames["line"].append(frame.line)
            frames["library"].append(frame.library)
            frames["pc"].append(frame.pc)
            frames["tag"].append(frame.tag)
            frames["parent"].append(index_of[id(node.parent)] if node.parent is not None else -1)
            for name, aggregate in node.exclusive.items():
                column = metric_columns.get(name)
                if column is None:
                    column = metric_columns[name] = {
                        "node": [], "count": [], "sum": [],
                        "min": [], "max": [], "mean": [], "m2": [],
                    }
                count, total, minimum, maximum, mean, m2 = aggregate.state()
                column["node"].append(index)
                column["count"].append(count)
                column["sum"].append(total)
                column["min"].append(minimum)
                column["max"].append(maximum)
                column["mean"].append(mean)
                column["m2"].append(m2)
        return {
            "format": COLUMNAR_TREE_FORMAT,
            "insertions": self.insertions,
            "nodes": frames,
            "exclusive": metric_columns,
        }

    @classmethod
    def build_from_columns(cls, kinds: Sequence, names: Sequence[str],
                           files: Sequence[str], lines: Sequence[int],
                           libraries: Sequence[str], pcs: Sequence[int],
                           tags: Sequence[str],
                           parents: Sequence[int]) -> Tuple["CallingContextTree", List[CCTNode]]:
        """Rebuild the tree structure from flat per-node columns.

        ``kinds`` entries may be :class:`FrameKind` members or their string
        values; ``parents`` holds registry indexes (-1 for the root).  Parents
        must precede children, the order both ``to_columnar`` and the binary
        profile backend guarantee.  Returns the tree and its node list (in
        column order) so callers can install metric columns afterwards —
        shared by :meth:`from_columnar` and the mmap-backed storage engine.
        """
        frames = []
        for index in range(len(kinds)):
            kind = kinds[index]
            # Not interned — see _decode_frame.
            frames.append(Frame(
                kind=kind if isinstance(kind, FrameKind) else FrameKind(kind),
                name=names[index], file=files[index], line=lines[index],
                library=libraries[index], pc=pcs[index], tag=tags[index],
            ))
        return cls.build_from_frames(frames, parents)

    @classmethod
    def build_from_frames(cls, frames: Sequence[Frame],
                          parents: Sequence[int]) -> Tuple["CallingContextTree", List[CCTNode]]:
        """Rebuild the tree from per-node frames and parent indexes.

        ``frames`` entries may be shared objects (the binary format's
        deduplicated frame table decodes each distinct frame once), which
        also shares their memoized ``identity()`` across nodes.
        """
        tree = cls()
        tree._clear_indexes()
        nodes: List[CCTNode] = []
        for index in range(len(frames)):
            frame = frames[index]
            parent = nodes[parents[index]] if parents[index] >= 0 else None
            node = CCTNode(frame, parent=parent, tree=tree)
            tree._register_node(node)
            if parent is None:
                tree.root = node
            else:
                parent.children[frame.identity()] = node
            nodes.append(node)
        return tree, nodes

    def install_exclusive_column(self, nodes: Sequence[CCTNode], metric: str,
                                 node_indexes: Sequence[int],
                                 counts: Sequence[int], sums: Sequence[float],
                                 minima: Sequence[float], maxima: Sequence[float],
                                 means: Sequence[float],
                                 m2s: Sequence[float]) -> None:
        """Install one metric's flat column onto ``nodes`` (decode hot path).

        Touched nodes are marked dirty and the generation is bumped once, so
        columns materialized *after* queries started (the lazy mmap view loads
        per column on demand) invalidate inclusive views and memoized
        aggregations exactly like live attribution would.
        """
        dirty = self._dirty
        from_state = MetricAggregate.from_state
        for node_index, count, total, minimum, maximum, mean, m2 in zip(
                node_indexes, counts, sums, minima, maxima, means, m2s):
            node = nodes[node_index]
            node.exclusive.put(metric, from_state(int(count), total, minimum,
                                                  maximum, mean, m2))
            dirty[id(node)] = node
        self._generation += 1

    @classmethod
    def from_columnar(cls, data: Mapping) -> "CallingContextTree":
        if data.get("format") != COLUMNAR_TREE_FORMAT:
            raise ValueError(f"not a {COLUMNAR_TREE_FORMAT} payload")
        frames = data["nodes"]
        tree, nodes = cls.build_from_columns(
            frames["kind"], frames["name"], frames["file"], frames["line"],
            frames["library"], frames["pc"], frames["tag"], frames["parent"])
        for name, column in data.get("exclusive", {}).items():
            tree.install_exclusive_column(
                nodes, name, column["node"], column["count"], column["sum"],
                column["min"], column["max"], column["mean"], column["m2"])
        tree.insertions = data.get("insertions", 0)
        return tree

    def approximate_size_bytes(self) -> int:
        """Rough in-memory footprint of the tree (nodes + metric aggregates).

        Reports the *current* footprint: a not-yet-materialized inclusive view
        occupies (almost) nothing and is counted as such — deliberately not
        forcing materialization, so overhead probes taken mid-collection stay
        cheap and don't perturb the propagation counters they report next to.
        Cached behind the generation counters so repeated overhead/summary
        queries between mutations cost O(1).
        """
        cache_key = (self._generation, self._inclusive_generation)
        cached_key, cached_total = self._size_cache
        if cached_key == cache_key:
            return cached_total
        total = 0
        for node in self._registry:
            total += 160  # node object, frame, child-dict overhead
            total += node.exclusive.approximate_size_bytes()
            total += node._inclusive.approximate_size_bytes()
        self._size_cache = (cache_key, total)
        return total


# ---------------------------------------------------------------------------
# Per-thread shards, merged at query time
# ---------------------------------------------------------------------------

#: Shard id used by the degenerate single-tree API (no thread routing).
DEFAULT_SHARD_ID = 0

SHARDED_TREE_FORMAT = "cct-columnar-sharded-v1"


class ShardedCallingContextTree:
    """Per-thread CCT shards with a lazily merged query-time view.

    Collection side: every simulated CPU thread gets its own private
    :class:`CallingContextTree` (``shard_for`` / ``shard_for_tid``), so the
    hot attribution path touches only thread-local state — no cross-thread
    coordination, and per-observation cost independent of how many threads
    are being profiled.  The handle is memoized on the ``ThreadContext``
    itself (``thread.cct_shard``) so the per-event lookup is one attribute
    read.

    Query side: the full single-tree read API (``root``, traversals, kind
    indexes, ``aggregate_by_name``, serialization) is served by a merged tree
    materialized on demand by unioning every shard with
    :meth:`CallingContextTree.merge_from`.  The merged view is cached behind
    the tuple of shard generation counters — the same invalidation scheme
    ``approximate_size_bytes`` uses — so repeated queries between mutations
    reuse one materialization, and node identities stay stable while no shard
    changes.  Nodes returned by queries belong to the merged tree; re-fetch
    them after mutations instead of caching across them (the same contract
    ``CCTNode.inclusive`` documents for metric sets).

    The single-tree mutator API (``insert``/``attribute``/...) remains
    available and routes to a default shard, making the unsharded profiler
    the degenerate one-shard case of this class.
    """

    def __init__(self, program_name: str = "program") -> None:
        self.program_name = program_name
        #: Shards keyed by owning thread id (creation order preserved).
        self._shards: Dict[int, CallingContextTree] = {}
        #: Per-shard provenance: which thread produced it (saved with profiles).
        self._provenance: Dict[int, Dict[str, object]] = {}
        self._merged: Optional[CallingContextTree] = None
        self._merged_key: Tuple = ()
        #: Per-shard ``id(shard node) → merged node`` mappings from the last
        #: full merge, and per-merged-node source-node lists — the index the
        #: incremental metric refresh recombines dirty nodes from.
        self._merge_mappings: Dict[int, Dict[int, CCTNode]] = {}
        self._merge_sources: Dict[int, List[CCTNode]] = {}
        #: Per-shard (generation, inclusive generation, node count) snapshot
        #: taken when the merged view last absorbed that shard.
        self._merge_records: Dict[int, Tuple[int, int, int]] = {}
        #: Propagations performed by merged views that have been discarded —
        #: keeps the ``propagations`` counter monotonic across rebuilds.
        self._retired_propagations = 0
        #: Merged-view materializations performed, full or incremental
        #: (observability/tests).
        self.merges = 0
        #: How many of those were in-place incremental refreshes.
        self.refreshes = 0

    # -- shard management -----------------------------------------------------------

    def shard_for(self, thread) -> CallingContextTree:
        """The shard owned by ``thread``, created on first use.

        The (owner, shard) handle is cached on the thread context so repeated
        per-event lookups cost one attribute read; the owner check keeps
        handles from a previous profiling session from leaking into this one.
        """
        handle = getattr(thread, "cct_shard", None)
        if handle is not None and handle[0] is self:
            return handle[1]
        shard = self.shard_for_tid(thread.tid, thread_name=thread.name,
                                   thread_kind=thread.kind)
        try:
            thread.cct_shard = (self, shard)
        except AttributeError:
            pass  # duck-typed thread without assignable attributes
        return shard

    def shard_for_tid(self, tid: int, thread_name: str = "",
                      thread_kind: str = "") -> CallingContextTree:
        """The shard for a thread id (used when only the tid is known)."""
        shard = self._shards.get(tid)
        if shard is None:
            shard = CallingContextTree(self.program_name)
            self._shards[tid] = shard
            self._provenance[tid] = {
                "shard_id": tid,
                "thread_name": thread_name,
                "thread_kind": thread_kind,
            }
        return shard

    @property
    def default_shard(self) -> CallingContextTree:
        """The shard behind the degenerate single-tree mutator API."""
        return self.shard_for_tid(DEFAULT_SHARD_ID, thread_name="unsharded")

    def shards(self) -> Dict[int, CallingContextTree]:
        return dict(self._shards)

    def shard_count(self) -> int:
        return len(self._shards)

    def shard_provenance(self) -> List[Dict[str, object]]:
        """Per-shard origin records in shard creation order."""
        return [dict(self._provenance[tid]) for tid in self._shards]

    # -- single-tree mutator API (degenerate one-shard case) --------------------------

    def insert(self, callpath: CallPath) -> CCTNode:
        return self.default_shard.insert(callpath)

    def _owning_tree(self, node: CCTNode) -> CallingContextTree:
        """The shard a mutation on ``node`` must target.

        Nodes obtained from the read API belong to a *merged cache* — the
        current one, or an already-discarded earlier materialization —
        attributing into either would silently lose the observation, so they
        are rejected outright.
        """
        tree = node.tree
        if tree is None:
            return self.default_shard
        if tree.is_merged_view:
            raise ValueError(
                "node belongs to the merged query view, which is rebuilt (and "
                "discarded) when any shard changes; attribute through the "
                "owning shard (shard_for/shard_for_tid) or insert_and_attribute")
        return tree

    def attribute(self, node: CCTNode, metric: str, value: float) -> None:
        self._owning_tree(node).attribute(node, metric, value)

    def attribute_many(self, node: CCTNode, metrics: Mapping[str, float]) -> None:
        self._owning_tree(node).attribute_many(node, metrics)

    def insert_and_attribute(self, callpath: CallPath,
                             metrics: Mapping[str, float]) -> CCTNode:
        return self.default_shard.insert_and_attribute(callpath, metrics)

    # -- merged view -----------------------------------------------------------------

    def _merge_key(self) -> Tuple:
        return tuple((tid, shard._generation) for tid, shard in self._shards.items())

    def merged(self) -> CallingContextTree:
        """The union of every shard, materialized lazily at query time.

        The first materialization (and any after a *structural* shard change)
        unions every shard into a fresh tree and records, per shard, the
        shard-node → merged-node mapping plus each merged node's contributing
        source nodes.  When only attributions happened since — the common
        query-while-collecting pattern — the cached view is refreshed *in
        place*: just the merged nodes fed by dirty shard nodes are recombined
        from their sources, and the merged tree's own incremental inclusive
        materialization then propagates only those dirty subtrees instead of
        running a full bottom-up pass.  Node identities survive an in-place
        refresh; a structural rebuild still discards the old view.
        """
        key = self._merge_key()
        if self._merged is not None:
            if key == self._merged_key:
                return self._merged
            if self._refresh_merged():
                self._merged_key = key
                self.merges += 1
                self.refreshes += 1
                return self._merged
            self._retired_propagations += self._merged.propagations
        merged = CallingContextTree(self.program_name)
        merged.is_merged_view = True
        self._merge_mappings.clear()
        self._merge_sources.clear()
        self._merge_records.clear()
        sources = self._merge_sources
        for tid, shard in self._shards.items():
            mapping = merged.merge_from(shard)
            self._merge_mappings[tid] = mapping
            for source in shard._registry:
                target = mapping[id(source)]
                bucket = sources.get(id(target))
                if bucket is None:
                    bucket = sources[id(target)] = []
                bucket.append(source)
            self._merge_records[tid] = (shard._generation,
                                        shard._inclusive_generation,
                                        len(shard._registry))
        self._merged = merged
        self._merged_key = key
        self.merges += 1
        return self._merged

    def _refresh_merged(self) -> bool:
        """Try to bring the cached merged view up to date without a rebuild.

        Possible only when every changed shard saw *metric-only* mutations
        whose dirty records are still intact: same node count (no inserts),
        untouched shard-local inclusive view (materializing it clears the
        shard's dirty set, which this refresh depends on), and a non-empty
        dirty set covering the attributions.  Each merged node fed by a dirty
        shard node is zeroed in place and recombined from all of its source
        nodes (Welford merges are not invertible, so the contribution cannot
        be subtracted), then marked dirty on the merged tree so the next
        inclusive materialization propagates only those subtrees.  A shard's
        dirty set may predate the last full merge (it is only cleared by the
        shard's own materialization); recombining a superset is harmless.
        """
        if set(self._shards) != set(self._merge_records):
            return False
        recompute: Dict[int, CCTNode] = {}
        changed: List[int] = []
        for tid, shard in self._shards.items():
            generation, inclusive_generation, node_count = self._merge_records[tid]
            if shard._generation == generation:
                continue
            if (len(shard._registry) != node_count
                    or shard._inclusive_generation != inclusive_generation
                    or not shard._dirty):
                return False
            mapping = self._merge_mappings[tid]
            for source in shard._dirty.values():
                target = mapping.get(id(source))
                if target is None:
                    return False
                recompute[id(target)] = target
            changed.append(tid)
        merged = self._merged
        assert merged is not None
        for target in recompute.values():
            target.exclusive.zero()
            for source in self._merge_sources[id(target)]:
                target.exclusive.merge(source.exclusive)
            merged._dirty[id(target)] = target
        merged._generation += 1
        for tid in changed:
            shard = self._shards[tid]
            self._merge_records[tid] = (shard._generation,
                                        shard._inclusive_generation,
                                        len(shard._registry))
        return True

    def ensure_inclusive(self) -> None:
        self.merged().ensure_inclusive()

    @property
    def generation(self) -> int:
        """Sum of shard generation counters (cache key, monotonic)."""
        return sum(shard._generation for shard in self._shards.values())

    @property
    def insertions(self) -> int:
        return sum(shard.insertions for shard in self._shards.values())

    @property
    def propagations(self) -> int:
        """Total node→parent merges, monotonic across merged-view rebuilds."""
        merged = self._merged.propagations if self._merged is not None else 0
        return (self._retired_propagations + merged
                + sum(shard.propagations for shard in self._shards.values()))

    # -- read API (delegates to the merged view) ---------------------------------------

    @property
    def root(self) -> CCTNode:
        return self.merged().root

    def nodes(self) -> Iterator[CCTNode]:
        return self.merged().nodes()

    def bfs(self) -> Iterator[CCTNode]:
        return self.merged().bfs()

    def all_nodes(self) -> List[CCTNode]:
        return self.merged().all_nodes()

    def leaves(self) -> Iterator[CCTNode]:
        return self.merged().leaves()

    def find(self, predicate: Callable[[CCTNode], bool]) -> List[CCTNode]:
        return self.merged().find(predicate)

    def nodes_of_kind(self, kind: FrameKind) -> List[CCTNode]:
        return self.merged().nodes_of_kind(kind)

    @property
    def kernels(self) -> List[CCTNode]:
        return self.merged().kernels

    @property
    def operators(self) -> List[CCTNode]:
        return self.merged().operators

    @property
    def scopes(self) -> List[CCTNode]:
        return self.merged().scopes

    def node_count(self) -> int:
        return self.merged().node_count()

    def max_depth(self) -> int:
        return self.merged().max_depth()

    def aggregate_by_name(self, kind: Optional[FrameKind] = None,
                          metric: str = "gpu_time") -> Dict[str, float]:
        return self.merged().aggregate_by_name(kind=kind, metric=metric)

    def total_metric(self, metric: str) -> float:
        """Whole-profile total of ``metric`` across every shard.

        Always the shard-order sum of per-shard totals: summary probes
        neither force a merge nor clear the shard dirty records the
        incremental merged-view refresh relies on, and the summation order —
        hence the exact floating-point result — is stable across save/load
        round-trips (shard order is preserved by every format).
        """
        return sum(shard.total_metric(metric) for shard in self._shards.values())

    def approximate_size_bytes(self) -> int:
        """Footprint of every shard plus the merged view if materialized.

        Like the single-tree variant this reports the *current* footprint —
        an unmaterialized merged view costs (almost) nothing and is counted
        as such, so overhead probes taken mid-collection stay cheap.
        """
        total = self.stored_size_bytes()
        if self._merged is not None:
            total += self._merged.approximate_size_bytes()
        return total

    def stored_node_count(self) -> int:
        """Nodes held across the shards, without forcing a merge.

        Each shard counts its own root, so this slightly exceeds the merged
        view's ``node_count()`` (which unions them); it is the collection-side
        number overhead probes use so that probing mid-run neither pays for a
        materialization nor perturbs the footprint it is reporting.
        """
        return sum(shard.node_count() for shard in self._shards.values())

    def stored_size_bytes(self) -> int:
        """Shard-only footprint (excludes any materialized merged view)."""
        return sum(shard.approximate_size_bytes() for shard in self._shards.values())

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """Nested-dict encoding of the *merged* view (flattens the shards).

        The nested JSON profile format predates sharding; it stores the union
        tree, which loads back as a plain single :class:`CallingContextTree`.
        Use :meth:`to_columnar` to preserve per-shard provenance.
        """
        return self.merged().to_dict()

    def to_columnar(self) -> Dict:
        """Multi-shard columnar encoding with per-shard provenance."""
        entries = []
        for tid, shard in self._shards.items():
            entry = dict(self._provenance[tid])
            entry["insertions"] = shard.insertions
            entry["generation"] = shard._generation
            entry["tree"] = shard.to_columnar()
            entries.append(entry)
        return {
            "format": SHARDED_TREE_FORMAT,
            "program": self.program_name,
            "shards": entries,
        }

    @classmethod
    def from_columnar(cls, data: Mapping) -> "ShardedCallingContextTree":
        if data.get("format") != SHARDED_TREE_FORMAT:
            raise ValueError(f"not a {SHARDED_TREE_FORMAT} payload")
        tree = cls(str(data.get("program", "program")))
        for entry in data.get("shards", []):
            tid = int(entry.get("shard_id", DEFAULT_SHARD_ID))
            tree._shards[tid] = CallingContextTree.from_columnar(entry["tree"])
            tree._provenance[tid] = {
                "shard_id": tid,
                "thread_name": str(entry.get("thread_name", "")),
                "thread_kind": str(entry.get("thread_kind", "")),
            }
        return tree

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedCallingContextTree(shards={len(self._shards)}, "
                f"insertions={self.insertions})")
