"""Output checks computed apart from the program.

Every verdict here comes from numpy, networkx or plain Python over the
program's *outputs* (publication texts, edge lists, vertex lists); no
``repro`` function is called. Each ``check_*`` returns a list of error
strings, empty when the output passes. The properties checked are the ones
the paper's method must have:

* a publication's cells have at least k vertices and are equitable on the
  published graph (a sub-automorphism partition is equitable), the input is
  the subgraph the publication induces on the input's own ids (insertions
  only), and the cells of the original vertices are the colour refinement
  of the input (Orb(G) = TDV(G) on the chosen inputs; Section 7);
* a backbone has the vertex, edge and cell counts of the input's own
  backbone (Theorem 4) and is induced in the publication;
* a sample is an induced subgraph of the publication with ``original_n``
  vertices and at least one vertex from every cell (Algorithms 4-5);
* a release keeps every previous cell inside one new cell, every cell at
  size k or more, and the previous release as an induced subgraph;
* a degree-measure audit's candidates are the vertices whose degree equals
  the target's.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np


@dataclass
class Publication:
    """A published (G', V', n) triple as plain arrays."""

    vertices: np.ndarray  # sorted vertex ids (the union of the cells)
    edges: np.ndarray  # (m, 2) int64, u < v, rows sorted
    cells: list[np.ndarray]
    original_n: int


# -- parsing -----------------------------------------------------------------

def normalize_edges(pairs) -> np.ndarray:
    """(m, 2) int64 array with u < v per row, rows sorted and unique."""
    edges = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    if not len(edges):
        return edges
    base = int(edges.max()) + 1
    keys = np.unique(edges[:, 0] * base + edges[:, 1])
    return np.stack([keys // base, keys % base], axis=1)


def parse_edge_text(text: str) -> np.ndarray:
    body = " ".join(line for line in text.splitlines() if not line.startswith("#"))
    return normalize_edges(np.fromstring(body, dtype=np.int64, sep=" "))


def graph_arrays(graph) -> tuple[np.ndarray, np.ndarray]:
    """(vertices, edges) of a program's graph object, read through its
    ``vertices`` and ``neighbors`` accessors."""
    vertices = np.array(sorted(graph.vertices()), dtype=np.int64)
    return vertices, normalize_edges([(v, u) for v in graph for u in graph.neighbors(v) if v < u])


def parse_graph_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(vertices, edges) of an edge-list text, isolated vertices included."""
    edges = parse_edge_text(text)
    isolated = [int(t) for line in text.splitlines() if line.startswith("# isolated:")
                for t in line.split(":", 1)[1].split()]
    return np.unique(np.concatenate([edges.ravel(), np.array(isolated, dtype=np.int64)])), edges


def parse_cells(text: str) -> list[np.ndarray]:
    return [np.array(sorted(int(t) for t in line.split()), dtype=np.int64)
            for line in text.splitlines() if line.strip()]


def parse_publication(edges_text: str, partition_text: str, original_n: int) -> Publication:
    cells = parse_cells(partition_text)
    vertices = np.sort(np.concatenate(cells)) if cells else np.zeros(0, np.int64)
    return Publication(vertices, parse_edge_text(edges_text), cells, int(original_n))


# -- array helpers -----------------------------------------------------------

def _keys(edges: np.ndarray, base: int) -> np.ndarray:
    return np.unique(edges[:, 0] * base + edges[:, 1]) if len(edges) else np.zeros(0, np.int64)


def _base(*arrays: np.ndarray) -> int:
    return int(max((int(a.max()) for a in arrays if a.size), default=0)) + 1


def induced(edges: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """The rows of *edges* with both endpoints in *vertices*."""
    inside = np.isin(edges, vertices).all(axis=1) if len(edges) else np.zeros(0, bool)
    return edges[inside]


def same_edges(a: np.ndarray, b: np.ndarray) -> bool:
    base = _base(a, b)
    return np.array_equal(_keys(a, base), _keys(b, base))


def canonical_cells(cells) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(int(v) for v in cell)) for cell in cells)


def cell_index(cells: list[np.ndarray], size: int) -> np.ndarray:
    """vertex id -> index of its cell (-1 outside every cell), ids < *size*."""
    cell_of = np.full(size, -1, dtype=np.int64)
    for index, cell in enumerate(cells):
        cell_of[cell] = index
    return cell_of


def cells_on(cells: list[np.ndarray], vertices: np.ndarray) -> list[tuple[int, ...]]:
    """The partition the cells induce on *vertices* (empty parts dropped)."""
    cell_of = cell_index(cells, _base(vertices, *cells))
    groups: dict[int, list[int]] = {}
    for v, c in zip(vertices.tolist(), cell_of[vertices].tolist()):
        groups.setdefault(c, []).append(v)
    return canonical_cells(groups.values())


def degrees(vertices, edges: np.ndarray) -> dict[int, int]:
    deg = {int(v): 0 for v in vertices}
    ends, counts = np.unique(edges, return_counts=True)
    for v, c in zip(ends.tolist(), counts.tolist()):
        deg[v] = c
    return deg


# -- reference computations --------------------------------------------------

def _adjacency(vertices, edges: np.ndarray) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {int(v): set() for v in vertices}
    for u, v in edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _refine(adj: list[list[int]], colour: list[int]) -> list[int]:
    """Colour refinement to the stable colouring, from *colour*.

    Each round recolours a vertex by (its colour, the sorted multiset of its
    neighbours' colours); refinement only splits classes, so it is stable
    once a round adds no class. New colours are numbered by sorted
    signature, so two graphs refined as one disjoint union get comparable
    colours.
    """
    classes = len(set(colour))
    while True:
        signatures = [(colour[v], tuple(sorted(colour[u] for u in nbrs)))
                      for v, nbrs in enumerate(adj)]
        ids = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        colour = [ids[sig] for sig in signatures]
        if len(ids) == classes:
            return colour
        classes = len(ids)


def colour_refinement(vertices, edges: np.ndarray) -> list[tuple[int, ...]]:
    """The coarsest equitable partition (1-WL from the unit colouring), exact."""
    order = sorted(int(v) for v in vertices)
    index = {v: i for i, v in enumerate(order)}
    adj: list[list[int]] = [[] for _ in order]
    for u, v in edges.tolist():
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(_refine(adj, [0] * len(order))):
        groups.setdefault(c, []).append(order[i])
    return canonical_cells(groups.values())


def _component_classes(adj: dict[int, set[int]], cell: list[int]) -> list[list[list[int]]]:
    """Components of G[cell] grouped by isomorphism fixing outside neighbours.

    Two components are in one class when an isomorphism between them maps
    every vertex to one with the same set of neighbours outside the cell
    (the paper's L-isomorphism). Classes and components are ordered by their
    smallest vertex.
    """
    inside = set(cell)
    seen: set[int] = set()
    components: list[list[int]] = []
    for root in sorted(cell):
        if root in seen:
            continue
        seen.add(root)
        stack, comp = [root], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if u in inside and u not in seen:
                    seen.add(u)
                    stack.append(u)
        components.append(sorted(comp))
    classes: list[list[list[int]]] = []
    buckets: dict[tuple, list[int]] = {}  # invariant -> indices into classes
    for comp in components:
        labels = {v: frozenset(adj[v] - inside) for v in comp}
        if len(comp) == 1:
            key: tuple = (1, labels[comp[0]])
        else:
            n_edges = sum(len(adj[v] & inside) for v in comp) // 2
            key = (len(comp), n_edges, tuple(sorted(tuple(sorted(s)) for s in labels.values())))
        placed = False
        for index in buckets.get(key, []):
            if len(comp) == 1 or _l_isomorphic(adj, inside, classes[index][0], comp):
                classes[index].append(comp)
                placed = True
                break
        if not placed:
            buckets.setdefault(key, []).append(len(classes))
            classes.append([comp])
    return classes


def _l_isomorphic(adj, inside, a: list[int], b: list[int]) -> bool:
    def labelled(comp):
        g = nx.Graph()
        for v in comp:
            g.add_node(v, label=frozenset(adj[v] - inside))
        g.add_edges_from((v, u) for v in comp for u in adj[v] if u in inside and v < u)
        return g
    return nx.is_isomorphic(labelled(a), labelled(b),
                            node_match=lambda x, y: x["label"] == y["label"])


def backbone_counts(vertices, edges: np.ndarray, cells) -> tuple[int, int, int]:
    """(vertices, edges, cells) of the backbone of (G, cells) — Algorithm 2.

    Repeatedly, in every cell, keep one component of each L-isomorphism
    class and delete the others, until a pass deletes nothing.
    """
    adj = _adjacency(vertices, edges)
    work = [sorted(int(v) for v in cell) for cell in cells]
    changed = True
    while changed:
        changed = False
        for index, cell in enumerate(work):
            if len(cell) < 2:
                continue
            classes = _component_classes(adj, cell)
            if all(len(cls) == 1 for cls in classes):
                continue
            keep: list[int] = []
            for cls in classes:
                keep.extend(cls[0])
                for extra in cls[1:]:
                    for v in extra:
                        for u in adj.pop(v):
                            adj[u].discard(v)
                    changed = True
            work[index] = sorted(keep)
    n_edges = sum(len(nbrs) for nbrs in adj.values()) // 2
    return len(adj), n_edges, len(work)


# -- checks --------------------------------------------------------------------

def check_equitable(edges: np.ndarray, cells: list[np.ndarray]) -> list[str]:
    """Every vertex of cell A has the same number of neighbours in cell B."""
    if not cells:
        return ["empty partition"]
    cell_of = cell_index(cells, _base(edges, *cells))
    if len(edges) and (cell_of[edges] < 0).any():
        return ["an edge endpoint lies in no cell"]
    n_cells = len(cells)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    per_vertex, counts = np.unique(src * n_cells + cell_of[dst], return_counts=True)
    pair = cell_of[per_vertex // n_cells] * n_cells + per_vertex % n_cells
    order = np.argsort(pair, kind="stable")
    pair, counts = pair[order], counts[order]
    pairs, starts, members = np.unique(pair, return_index=True, return_counts=True)
    if not len(pairs):
        return []
    low = np.minimum.reduceat(counts, starts)
    high = np.maximum.reduceat(counts, starts)
    sizes = np.array([len(cell) for cell in cells])
    bad = (low != high) | (members != sizes[pairs // n_cells])
    if bad.any():
        first = int(pairs[bad][0])
        return [f"partition not equitable: cell {first // n_cells} against cell "
                f"{first % n_cells} ({int(bad.sum())} cell pairs)"]
    return []


def check_partition_shape(pub: Publication, k: int) -> list[str]:
    errors = []
    if len(np.unique(pub.vertices)) != len(pub.vertices):
        errors.append("a vertex lies in two cells")
    small = [len(cell) for cell in pub.cells if len(cell) < k]
    if small:
        errors.append(f"{len(small)} cells smaller than k={k} (sizes {sorted(small)[:5]})")
    if len(pub.edges) and not np.isin(pub.edges, pub.vertices).all():
        errors.append("an edge endpoint lies in no cell")
    return errors


def check_publication(pub: Publication, k: int, input_vertices: np.ndarray,
                      input_edges: np.ndarray, reference_cells) -> list[str]:
    """A publication of the input (given in the requester's ids)."""
    errors = check_partition_shape(pub, k)
    if errors:
        return errors
    errors += check_equitable(pub.edges, pub.cells)
    if pub.original_n != len(input_vertices):
        errors.append(f"original_n {pub.original_n} != input size {len(input_vertices)}")
    if not np.isin(input_vertices, pub.vertices).all():
        errors.append("an input vertex is missing from the publication")
    elif not same_edges(induced(pub.edges, input_vertices), input_edges):
        errors.append("the publication does not induce the input on the input's ids")
    if cells_on(pub.cells, input_vertices) != reference_cells:
        errors.append("cells of the original vertices differ from the colour refinement")
    return errors


def check_backbone(counts: tuple[int, int, int], vertices: np.ndarray, edges: np.ndarray,
                   cells: list[list[int]], pub: Publication,
                   expected: tuple[int, int, int]) -> list[str]:
    errors = []
    if counts != expected:
        errors.append(f"backbone (vertices, edges, cells) {counts} != input backbone {expected}")
    if not np.isin(vertices, pub.vertices).all():
        errors.append("a backbone vertex is not published")
    elif not same_edges(edges, induced(pub.edges, vertices)):
        errors.append("the backbone is not induced in the publication")
    if len(cells) != len(pub.cells):
        errors.append("backbone cells do not align with the published cells")
    else:
        cell_of = cell_index(pub.cells, _base(pub.vertices))
        if any(not len(part) or (cell_of[np.asarray(part)] != index).any()
               for index, part in enumerate(cells)):
            errors.append("a backbone cell is empty or leaves its published cell")
    return errors


def check_sample(vertices: np.ndarray, edges: np.ndarray, pub: Publication) -> list[str]:
    errors = []
    if len(vertices) != pub.original_n or len(np.unique(vertices)) != len(vertices):
        errors.append(f"sample has {len(vertices)} vertices, expected {pub.original_n} distinct")
    if not np.isin(vertices, pub.vertices).all():
        return errors + ["a sample vertex is not published"]
    if not same_edges(edges, induced(pub.edges, vertices)):
        errors.append("the sample is not an induced subgraph of the publication")
    hit = np.unique(cell_index(pub.cells, _base(pub.vertices))[vertices])
    missed = len(pub.cells) - len(hit[hit >= 0])
    if missed:
        errors.append(f"the sample misses {missed} cells")
    return errors


def check_release(previous: Publication, release: Publication, k: int,
                  delta_vertices: np.ndarray, delta_edges: np.ndarray) -> list[str]:
    errors = check_partition_shape(release, k)
    if errors:
        return errors
    errors += check_equitable(release.edges, release.cells)
    if release.original_n != previous.original_n + len(delta_vertices):
        errors.append("original_n did not grow by the delta")
    if not np.isin(previous.vertices, release.vertices).all():
        return errors + ["a previous vertex is missing from the release"]
    if not same_edges(induced(release.edges, previous.vertices), previous.edges):
        errors.append("the previous release is not an induced subgraph of the new one")
    base = _base(release.edges, delta_edges)
    if not np.isin(delta_vertices, release.vertices).all():
        errors.append("a delta vertex is missing")
    elif not np.isin(_keys(delta_edges, base), _keys(release.edges, base)).all():
        errors.append("a delta edge is missing")
    cell_of = cell_index(release.cells, _base(release.vertices))
    split = sum(1 for cell in previous.cells if cell_of[cell].min() != cell_of[cell].max())
    if split:
        errors.append(f"{split} previous cells are split across new cells")
    return errors


def check_audit_candidates(candidates, target: int, input_vertices,
                           input_edges: np.ndarray) -> list[str]:
    deg = degrees(input_vertices, input_edges)
    expected = sorted(v for v, d in deg.items() if d == deg[target])
    if sorted(candidates) != expected:
        return [f"degree candidates {len(candidates)} != degree count {len(expected)}"]
    return []


def find_isomorphism(a: Publication, b: Publication, budget: int = 2000) -> dict[int, int] | None:
    """A bijection V(a) -> V(b) that maps edges onto edges, or None.

    Individualization-refinement on the disjoint union: refine, fix one
    vertex of a non-singleton colour on each side, refine again, until every
    colour holds one vertex per side; the pairing is then checked edge by
    edge, so a returned map is always an isomorphism. Alternatives are tried
    on mismatch, up to *budget* individualizations.
    """
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return None
    n = len(a.vertices)
    ids = [{int(v): i + side * n for i, v in enumerate(pub.vertices.tolist())}
           for side, pub in enumerate((a, b))]
    adj: list[list[int]] = [[] for _ in range(2 * n)]
    for side, pub in enumerate((a, b)):
        for u, v in pub.edges.tolist():
            adj[ids[side][u]].append(ids[side][v])
            adj[ids[side][v]].append(ids[side][u])
    b_keys = set(_keys(b.edges, _base(b.edges)).tolist())
    base = _base(b.edges)
    a_of = a.vertices.tolist()
    b_of = b.vertices.tolist()
    tries = [0]

    def search(colour: list[int]) -> dict[int, int] | None:
        colour = _refine(adj, colour)
        members: dict[int, list[list[int]]] = {}
        for v, c in enumerate(colour):
            members.setdefault(c, [[], []])[v >= n].append(v)
        if any(len(left) != len(right) for left, right in members.values()):
            return None
        open_cells = [cell for cell in members.values() if len(cell[0]) > 1]
        if not open_cells:
            mapping = {a_of[cell[0][0]]: b_of[cell[1][0] - n] for cell in members.values()}
            for u, v in a.edges.tolist():
                x, y = sorted((mapping[u], mapping[v]))
                if x * base + y not in b_keys:
                    return None
            return mapping
        left, right = min(open_cells, key=lambda cell: (len(cell[0]), cell[0][0]))
        fresh = max(colour) + 1
        for candidate in right:
            tries[0] += 1
            if tries[0] > budget:
                return None
            trial = list(colour)
            trial[left[0]] = trial[candidate] = fresh
            found = search(trial)
            if found is not None:
                return found
        return None

    return search([0] * (2 * n))


def isomorphic(a: Publication, b: Publication) -> bool:
    return find_isomorphism(a, b) is not None
