"""Shortest-superstring approximation via maximal linear forests.

*"Computing maximum linear forests is the edge analog of the maximal path
set problem, which is solved to approximate the shortest superstring problem
occurring during DNA sequencing"* (paper, introduction).

Pipeline: reads → undirected overlap graph (edge weight = the larger of the
two directed suffix/prefix overlaps) → maximum-weight linear forest →
merge each path, orienting it to use the larger total overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.factor import ParallelFactorConfig
from ..core.pipeline import extract_linear_forest
from ..sparse.build import from_edges
from ..sparse.csr import CSRMatrix

__all__ = ["OverlapGraph", "assemble_superstring", "build_overlap_graph"]


def _overlap(a: str, b: str, min_overlap: int) -> int:
    """Length of the longest suffix of ``a`` matching a prefix of ``b``."""
    best = 0
    max_k = min(len(a), len(b)) - 1
    for k in range(min_overlap, max_k + 1):
        if a[-k:] == b[:k]:
            best = k
    return best


@dataclass(frozen=True)
class OverlapGraph:
    """Reads plus their pairwise overlap structure."""

    reads: tuple[str, ...]
    graph: CSRMatrix
    directed_overlaps: dict[tuple[int, int], int]

    @property
    def n_reads(self) -> int:
        return len(self.reads)


def build_overlap_graph(reads: list[str], *, min_overlap: int = 4) -> OverlapGraph:
    """All-pairs overlap computation (quadratic; fine for read sets of
    hundreds — a production assembler would use suffix structures)."""
    n = len(reads)
    ov: dict[tuple[int, int], int] = {}
    u_list: list[int] = []
    v_list: list[int] = []
    w_list: list[float] = []
    for i in range(n):
        for j in range(i + 1, n):
            w_ij = _overlap(reads[i], reads[j], min_overlap)
            w_ji = _overlap(reads[j], reads[i], min_overlap)
            if max(w_ij, w_ji) > 0:
                ov[(i, j)] = w_ij
                ov[(j, i)] = w_ji
                u_list.append(i)
                v_list.append(j)
                w_list.append(float(max(w_ij, w_ji)))
    graph = from_edges(n, u_list, v_list, w_list)
    return OverlapGraph(reads=tuple(reads), graph=graph, directed_overlaps=ov)


@dataclass(frozen=True)
class SuperstringResult:
    superstring: str
    chains: list[list[int]]
    overlap_coverage: float

    @property
    def length(self) -> int:
        return len(self.superstring)


def assemble_superstring(overlap: OverlapGraph) -> SuperstringResult:
    """Chain the reads along a maximum-weight linear forest and merge.

    The forest comes from a [0,2]-factor with M = 10 proposition rounds.
    Every read appears as a substring of the result exactly once; chains are
    concatenated in path-id order.
    """
    result = extract_linear_forest(
        overlap.graph, ParallelFactorConfig(n=2, max_iterations=10)
    )
    info = result.paths
    ov = overlap.directed_overlaps
    reads = overlap.reads

    chains: list[list[int]] = []
    parts: list[str] = []
    for pid in info.path_ids:
        members = info.vertices_of(int(pid)).tolist()
        fwd = sum(ov.get((x, y), 0) for x, y in zip(members, members[1:]))
        rev_members = members[::-1]
        rev = sum(ov.get((x, y), 0) for x, y in zip(rev_members, rev_members[1:]))
        order = members if fwd >= rev else rev_members
        chains.append(order)
        merged = reads[order[0]]
        for prev, cur in zip(order, order[1:]):
            k = ov.get((prev, cur), 0)
            merged += reads[cur][k:] if k else reads[cur]
        parts.append(merged)
    return SuperstringResult(
        superstring="".join(parts),
        chains=chains,
        overlap_coverage=result.coverage,
    )
