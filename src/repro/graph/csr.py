"""Deterministic CSR adjacency engine for the follow graph (§4.5).

networkx's dict-of-dicts representation caps the social analyses around
10^5 nodes; this module stores the induced Dissenter follow graph as
compressed sparse rows over numpy integer arrays instead, with both the
forward (u follows v) and reverse adjacency materialized so in-degrees
and followers are O(1) slices.

Layout invariants (the determinism contract):

* ``node_ids`` is the sorted, deduplicated int64 array of Gab IDs — the
  same sorted node order the PR 4 lint sweep enforced on the networkx
  build, so degree arrays and tie-broken top-K lines are identical
  whichever engine produced them.
* ``indptr``/``indices`` (and their ``rev_`` mirrors) are int64 offsets
  into an int32 neighbor array; row ``i``'s neighbors are sorted
  ascending and deduplicated, so edge enumeration order is a pure
  function of the edge *set*.
* Builders only ever sort/deduplicate — no hash-order collection ever
  reaches the arrays, so two processes with different PYTHONHASHSEED
  values build byte-identical graphs.

The networkx implementations this engine replaced live in
``tests/oracles/`` with a ``to_networkx`` converter; the oracle tests use
them to prove every vectorized reduction bit-identical to its networkx
ancestor.  The package itself never imports networkx.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:   # import cycle: social_crawl builds CSRGraph instances
    from repro.crawler.social_crawl import SocialCrawlResult

__all__ = [
    "CSRGraph",
    "csr_from_edge_list",
    "csr_from_follow_records",
]


def _csr_rows(
    n_nodes: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack (src, dst) index pairs into (indptr, indices) rows.

    The pairs must already be deduplicated; rows come out sorted by
    (src, dst) so neighbor enumeration order is canonical.
    """
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    counts = np.bincount(src, minlength=n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst.astype(np.int32, copy=False)


class CSRGraph:
    """A directed graph over sorted Gab IDs in CSR form.

    Build through the module-level ``csr_from_*`` constructors or
    :meth:`from_index_edges`; the raw constructor trusts its arrays.
    """

    __slots__ = ("node_ids", "indptr", "indices", "rev_indptr", "rev_indices")

    def __init__(
        self,
        node_ids: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        rev_indptr: np.ndarray,
        rev_indices: np.ndarray,
    ) -> None:
        self.node_ids = node_ids
        self.indptr = indptr
        self.indices = indices
        self.rev_indptr = rev_indptr
        self.rev_indices = rev_indices

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def from_index_edges(
        cls, node_ids: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> "CSRGraph":
        """Build from edges given as *indices into* sorted ``node_ids``.

        Duplicate edges and self-loop-free input are the caller's
        contract to break — both are normalized here (deduplicated;
        self loops kept, matching ``DiGraph.add_edge`` semantics).
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        n = int(node_ids.size)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.size:
            keys = src * np.int64(n) + dst
            keys = np.unique(keys)
            src = keys // n
            dst = keys % n
        indptr, indices = _csr_rows(n, src, dst)
        rev_indptr, rev_indices = _csr_rows(n, dst, src)
        return cls(node_ids, indptr, indices, rev_indptr, rev_indices)

    # ------------------------------------------------------------------
    # Shape and lookups.
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(self.node_ids.size)

    @property
    def n_edges(self) -> int:
        return int(self.indices.size)

    @property
    def nodes(self) -> list[int]:
        """Node Gab IDs in canonical (sorted) order."""
        return [int(node) for node in self.node_ids]

    @property
    def edges(self) -> Iterator[tuple[int, int]]:
        """(u, v) Gab-ID pairs in canonical (src-row, dst) order."""
        src, dst = self.edge_indices()
        ids = self.node_ids
        return (
            (int(ids[s]), int(ids[d]))
            for s, d in zip(src.tolist(), dst.tolist())
        )

    def __contains__(self, gab_id: object) -> bool:
        if not isinstance(gab_id, (int, np.integer)):
            return False
        return self.index_of(int(gab_id)) is not None

    def index_of(self, gab_id: int) -> int | None:
        """Row index of ``gab_id``, or None if absent."""
        pos = int(np.searchsorted(self.node_ids, gab_id))
        if pos < self.n_nodes and int(self.node_ids[pos]) == gab_id:
            return pos
        return None

    def edge_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) index arrays in canonical row order."""
        out_deg = np.diff(self.indptr)
        src = np.repeat(
            np.arange(self.n_nodes, dtype=np.int64), out_deg
        )
        return src, self.indices.astype(np.int64, copy=False)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``u -> v`` exists (Gab-ID space)."""
        ui = self.index_of(u)
        vi = self.index_of(v)
        if ui is None or vi is None:
            return False
        row = self.indices[self.indptr[ui]:self.indptr[ui + 1]]
        pos = int(np.searchsorted(row, vi))
        return pos < row.size and int(row[pos]) == vi

    def out_neighbors(self, index: int) -> np.ndarray:
        """Successor row indices of node ``index`` (sorted)."""
        return self.indices[self.indptr[index]:self.indptr[index + 1]]

    def in_neighbors(self, index: int) -> np.ndarray:
        """Predecessor row indices of node ``index`` (sorted)."""
        return self.rev_indices[
            self.rev_indptr[index]:self.rev_indptr[index + 1]
        ]

    def successors(self, gab_id: int) -> Iterator[int]:
        """Successor Gab IDs in ascending order (networkx-shaped)."""
        index = self.index_of(gab_id)
        if index is None:
            raise KeyError(gab_id)
        for dst in self.out_neighbors(index):
            yield int(self.node_ids[dst])

    def degree(self, gab_id: int) -> int:
        """Total (in + out) degree of ``gab_id`` (networkx-shaped)."""
        index = self.index_of(gab_id)
        if index is None:
            raise KeyError(gab_id)
        out_deg = int(self.indptr[index + 1] - self.indptr[index])
        in_deg = int(self.rev_indptr[index + 1] - self.rev_indptr[index])
        return out_deg + in_deg

    def predecessors(self, gab_id: int) -> Iterator[int]:
        """Predecessor Gab IDs in ascending order (networkx-shaped)."""
        index = self.index_of(gab_id)
        if index is None:
            raise KeyError(gab_id)
        for src in self.in_neighbors(index):
            yield int(self.node_ids[src])

    # ------------------------------------------------------------------
    # Vectorized reductions (§4.5's hot paths).
    # ------------------------------------------------------------------

    def out_degrees(self) -> np.ndarray:
        """Out-degree per node in canonical order (int64)."""
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree per node in canonical order (int64)."""
        return np.diff(self.rev_indptr)

    def isolated_count(self) -> int:
        """Nodes with neither in- nor out-edges (§4.5.1 counts them)."""
        return int(((self.in_degrees() == 0) & (self.out_degrees() == 0)).sum())

    def top_k_by_degree(
        self, degrees: np.ndarray, k: int
    ) -> list[tuple[int, int]]:
        """Top-``k`` (gab_id, degree) sorted by (-degree, gab_id).

        The tie-break is total: equal degrees order by ascending Gab ID,
        so the report lines are identical whatever order produced the
        degree array.
        """
        order = np.lexsort((self.node_ids, -degrees))[:k]
        return [
            (int(self.node_ids[i]), int(degrees[i])) for i in order
        ]

    def mutual_edge_mask(self) -> np.ndarray:
        """Boolean mask over canonical edges: edge (u, v) with (v, u).

        Sorted-pair set intersection on the CSR rows.  The reverse
        adjacency enumerates the reversed edge set already sorted by
        (dst, src), so both key arrays are ascending and every
        ``searchsorted`` probe is near its predecessor — sequential
        binary searches instead of cache-thrashing random ones.
        """
        src, dst = self.edge_indices()
        n = np.int64(self.n_nodes)
        if not src.size:
            return np.zeros(0, dtype=bool)
        keys = src * n + dst          # sorted ascending by construction
        rev_src = np.repeat(
            np.arange(self.n_nodes, dtype=np.int64),
            np.diff(self.rev_indptr),
        )
        rkeys = rev_src * n + self.rev_indices  # also sorted ascending
        pos = np.searchsorted(rkeys, keys)
        pos_clipped = np.minimum(pos, rkeys.size - 1)
        return (pos < rkeys.size) & (rkeys[pos_clipped] == keys)

    def mutual_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Mutual-follow pairs as (src, dst) index arrays with src < dst.

        Encodes every edge as its unordered key ``min * n + max``; the
        edge set is deduplicated, so a key appears twice iff both
        directions exist.  One ``np.sort`` puts the duplicates adjacent
        — far cheaper at 10^6 nodes than probing each reversed edge
        against the sorted forward keys (random binary searches thrash
        the cache; a radix-ish sort streams).  Output order is ascending
        (src, dst), the same canonical order the mask path produced.
        """
        src, dst = self.edge_indices()
        if not src.size:
            return src, dst
        n = np.int64(self.n_nodes)
        ckeys = np.sort(
            np.minimum(src, dst) * n + np.maximum(src, dst)
        )
        dup = ckeys[:-1][ckeys[:-1] == ckeys[1:]]
        return dup // n, dup % n

    def connected_components(self) -> np.ndarray:
        """Weak-component label per node (edges treated undirected).

        Iterative min-label hooking with pointer jumping — no recursion,
        no per-node python loop.  Labels are the minimum node *index* in
        each component, so the labeling is deterministic.
        """
        n = self.n_nodes
        parent = np.arange(n, dtype=np.int64)
        src, dst = self.edge_indices()
        if not src.size:
            return parent
        while True:
            pu = parent[src]
            pv = parent[dst]
            hooked = pu != pv
            if not bool(hooked.any()):
                return parent
            lo = np.minimum(pu, pv)[hooked]
            hi = np.maximum(pu, pv)[hooked]
            # Hook the larger root under the smaller label...
            np.minimum.at(parent, hi, lo)
            # ...then pointer-jump every chain flat before re-probing.
            while True:
                contracted = parent[parent]
                if np.array_equal(contracted, parent):
                    break
                parent = contracted

    def component_sizes(self) -> list[int]:
        """Connected-component sizes, descending (§4.5.1's shape)."""
        if not self.n_nodes:
            return []
        labels = self.connected_components()
        counts = np.bincount(labels, minlength=self.n_nodes)
        sizes = counts[counts > 0]
        return sorted((int(s) for s in sizes), reverse=True)

    # ------------------------------------------------------------------
    # Derived graphs.
    # ------------------------------------------------------------------

    def subgraph_from_index_edges(
        self, src: np.ndarray, dst: np.ndarray
    ) -> "CSRGraph":
        """The graph induced by the given edges (indices of *this* graph).

        Nodes are exactly the endpoints of the given edges, remapped to
        a fresh sorted Gab-ID universe.
        """
        used = np.unique(np.concatenate([src, dst]))
        sub_ids = self.node_ids[used]
        return CSRGraph.from_index_edges(
            sub_ids,
            np.searchsorted(used, src),
            np.searchsorted(used, dst),
        )


def csr_from_edge_list(
    node_ids: Iterable[int], edges: Iterable[tuple[int, int]]
) -> CSRGraph:
    """Build from Gab-ID nodes and (u, v) Gab-ID edges.

    Edges touching IDs outside ``node_ids`` are dropped (the same
    members-only filter the induced Dissenter graph applies).
    """
    ids = np.unique(np.asarray(list(node_ids), dtype=np.int64))
    pairs = list(edges)
    if not pairs or not ids.size:
        empty = np.zeros(0, dtype=np.int64)
        return CSRGraph.from_index_edges(ids, empty, empty)
    arr = np.asarray(pairs, dtype=np.int64)
    src = np.searchsorted(ids, arr[:, 0])
    dst = np.searchsorted(ids, arr[:, 1])
    src_clipped = np.minimum(src, max(ids.size - 1, 0))
    dst_clipped = np.minimum(dst, max(ids.size - 1, 0))
    member = (
        (src < ids.size) & (ids[src_clipped] == arr[:, 0])
        & (dst < ids.size) & (ids[dst_clipped] == arr[:, 1])
    )
    return CSRGraph.from_index_edges(
        ids, src_clipped[member], dst_clipped[member]
    )


def csr_from_follow_records(
    crawl: "SocialCrawlResult", dissenter_gab_ids: Iterable[int]
) -> CSRGraph:
    """The induced Dissenter follow graph, straight from §3.4's lists.

    Nodes are the given Dissenter Gab IDs (all of them — §4.5.1 counts
    isolated users); an edge ``u -> v`` means u follows v, assembled from
    both the ``followers`` and ``following`` directions with edges
    touching non-Dissenter accounts dropped.  Exactly
    ``induce_dissenter_graph``'s semantics, vectorized.
    """
    ids = np.unique(np.asarray(list(dissenter_gab_ids), dtype=np.int64))
    src_chunks: list[np.ndarray] = []
    dst_chunks: list[np.ndarray] = []
    for target, followers in crawl.followers.items():
        if followers:
            src_chunks.append(np.asarray(followers, dtype=np.int64))
            dst_chunks.append(np.full(len(followers), target, dtype=np.int64))
    for source, targets in crawl.following.items():
        if targets:
            src_chunks.append(np.full(len(targets), source, dtype=np.int64))
            dst_chunks.append(np.asarray(targets, dtype=np.int64))
    if not src_chunks or not ids.size:
        empty = np.zeros(0, dtype=np.int64)
        return CSRGraph.from_index_edges(ids, empty, empty)
    src_ids = np.concatenate(src_chunks)
    dst_ids = np.concatenate(dst_chunks)
    src = np.searchsorted(ids, src_ids)
    dst = np.searchsorted(ids, dst_ids)
    limit = max(ids.size - 1, 0)
    src_clipped = np.minimum(src, limit)
    dst_clipped = np.minimum(dst, limit)
    member = (
        (src < ids.size) & (ids[src_clipped] == src_ids)
        & (dst < ids.size) & (ids[dst_clipped] == dst_ids)
    )
    return CSRGraph.from_index_edges(
        ids, src_clipped[member], dst_clipped[member]
    )
