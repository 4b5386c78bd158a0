"""Independent ground truth: exact quiver representations, minimal covers,
kernels, and brute-force projective dimensions.

Everything here is plain linear algebra over the rationals; the only
combinatorial input is the basis-path structure of the projectives.  Kernels
are split into support components (a basis-level direct sum decomposition).
Only a path-shaped component (every string module is one) has a sound
canonical iso key.  Each component is keyed once, when it is made: a stored
syzygy step hands out its kernel's components paired with their keys.  Each
syzygy step, each finite projective dimension and each per-branch
leftover string of the socle-block check is stored per pair under the
key, and repeating syzygies are detected by it: a module isomorphic to a
summand of one of its own higher syzygies has infinite projective
dimension.  The level comparison walks each resolution level as a
multiset of iso classes, covering and summing each class once.  A
module's zero maps, components and key read only its support's
out-arrows and their nonempty rows.
"""

from __future__ import annotations

from operator import attrgetter

from . import linalg
from .forbidden import LengthOrInf
from .quiver import AlmostGentlePair, _Frozen, _Record
from .strings import DirectedString, _check_string, string_source


class Representation(_Record):
    """dims per vertex and one matrix per arrow, acting on row vectors.

    maps[a] is a list of dims[s(a)] sparse rows ({column: value}, nonzero
    entries only) with columns below dims[t(a)]; a relation pair must
    compose to the zero matrix.
    """

    dims: dict[str, int]
    maps: dict[str, linalg.Matrix]
    _fields = ("dims", "maps")
    _key = attrgetter(*_fields)

    def __init__(self, dims: dict[str, int], maps: dict[str, linalg.Matrix]) -> None:
        self.dims = dims
        self.maps = maps

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> dict[str, int]:
        return {v: n for v, n in self.dims.items() if n}


def _empty_maps(pair: AlmostGentlePair, dims: dict[str, int]) -> dict[str, linalg.Matrix]:
    """A zero map per arrow: one empty row per basis vector at its source.

    Only the out-arrows of the support get rows; every other arrow gets an
    empty list of its own.
    """
    report, vidx = pair.report, pair.quiver.vertex_index
    names, outs = report.names, report.outs
    maps: dict[str, linalg.Matrix] = {name: [] for name in names}
    for v, n in dims.items():
        if n:
            for a in outs[vidx[v]]:
                maps[names[a]] = [{} for _i in range(n)]
    return maps


class _PathTree(_Frozen):
    """The nonzero paths out of one vertex (or into it), shortest first.

    Path 0 is the stationary path.  Path k > 0 is path up[k] made one arrow
    longer at its far end, which is ends[k]; local[k] numbers the paths that
    share that far end, and ext[(k, a)] is path k followed by arrow a when
    that is nonzero (paths out of the vertex only).
    """

    paths: list[tuple[str, ...]]
    ends: list[str]
    up: list[int]
    local: list[int]
    dims: dict[str, int]
    ext: dict[tuple[int, str], int]
    _fields = ("paths", "ends", "up", "local", "dims", "ext")
    _key = attrgetter(*_fields)


def _path_tree(pair: AlmostGentlePair, v: str, forward: bool = True) -> _PathTree:
    """Paths out of v (forward) or into v, enumerated once per pair."""
    def compute() -> _PathTree:
        report, idx, vertices = pair.report, pair.quiver.arrow_index, pair.quiver.vertices
        names, far = report.names, report.target if forward else report.source  # each arrow's far end

        def grow(p: tuple[str, ...]) -> list[tuple[str, ...]]:
            if forward:
                arrows = report.outs[far[idx[p[-1]]] if p else pair.quiver.vertex_index[v]]
                return [p + (names[b],) for b in arrows if not p or (p[-1], names[b]) not in pair.relations]
            arrows = report.ins[far[idx[p[0]]] if p else pair.quiver.vertex_index[v]]
            return [(names[b],) + p for b in arrows if not p or (names[b], p[0]) not in pair.relations]

        paths: list[tuple[str, ...]] = []
        frontier: list[tuple[str, ...]] = [()]
        while frontier:
            paths.extend(frontier)
            frontier = [q for p in frontier for q in grow(p)]
        paths.sort(key=lambda p: (len(p), tuple(idx[a] for a in p)))
        pos = {p: k for k, p in enumerate(paths)}
        tree = _PathTree(paths, [v], [-1], [0], dict.fromkeys(vertices, 0), {})
        tree.dims[v] = 1
        for k, p in enumerate(paths[1:], start=1):
            a, shorter = (p[-1], p[:-1]) if forward else (p[0], p[1:])
            end = vertices[far[idx[a]]]
            tree.ends.append(end)
            tree.up.append(pos[shorter])
            tree.local.append(tree.dims[end])
            tree.dims[end] += 1
            if forward:
                tree.ext[(pos[shorter], a)] = k
        return tree

    return pair.memo(("paths", v, forward), compute)


Slot = tuple[int, int]  # (generator, path index in that generator's tree)


def _free_module(pair: AlmostGentlePair, tops: list[str]) -> Representation:
    """The direct sum of the projectives P(v), v in tops, on its path basis.

    Slots (g, k) at each vertex are listed generator by generator, then in
    path order; the last arrow of path k sends slot (g, up[k]) to (g, k).
    """
    slot_list: dict[str, list[Slot]] = {w: [] for w in pair.quiver.vertices}
    trees = [_path_tree(pair, v) for v in tops]
    for g, tree in enumerate(trees):
        for k, w in enumerate(tree.ends):
            slot_list[w].append((g, k))
    dims = {w: len(slot_list[w]) for w in pair.quiver.vertices}
    maps = _empty_maps(pair, dims)
    index = {w: {sl: i for i, sl in enumerate(slot_list[w])} for w in pair.quiver.vertices}
    for w in pair.quiver.vertices:
        for i, (g, k) in enumerate(slot_list[w]):
            if k:
                tree = trees[g]
                up = tree.up[k]
                maps[tree.paths[k][-1]][index[tree.ends[up]][(g, up)]][i] = 1
    return Representation(dims, maps)


def rep_of(pair: AlmostGentlePair, kind: str, arg) -> Representation:
    """Representation of Simple(v) | Projective(v) | Injective(v) | DirString(ds)."""
    pair.require_valid()
    if kind == "simple":
        v = pair.require_vertex(arg)
        dims = {w: (1 if w == v else 0) for w in pair.quiver.vertices}
        return Representation(dims, _empty_maps(pair, dims))

    if kind == "string":
        ds: DirectedString = _check_string(pair, arg)
        # a vertex may repeat (zero-wraparound cycles); arrows never do
        verts = [string_source(pair, ds)] + [pair.arrow(a).target for a in ds.arrows]
        slot_of: list[int] = []
        counts: dict[str, int] = {}
        for w in verts:
            slot_of.append(counts.get(w, 0))
            counts[w] = counts.get(w, 0) + 1
        dims = {w: counts.get(w, 0) for w in pair.quiver.vertices}
        maps = _empty_maps(pair, dims)
        for i, a in enumerate(ds.arrows):
            maps[a][slot_of[i]][slot_of[i + 1]] = 1
        return Representation(dims, maps)

    if kind == "projective":
        return _free_module(pair, [pair.require_vertex(arg)])

    if kind == "injective":
        tree = _path_tree(pair, pair.require_vertex(arg), forward=False)
        maps = _empty_maps(pair, tree.dims)
        for k in range(1, len(tree.paths)):
            maps[tree.paths[k][0]][tree.local[k]][tree.local[tree.up[k]]] = 1
        return Representation(dict(tree.dims), maps)

    raise ValueError(f"unknown module kind {kind!r}")


def check_relations(pair: AlmostGentlePair, rep: Representation) -> bool:
    """Every relation pair composes to zero."""
    for a, b in pair.relations:
        if any(linalg.mat_mul(rep.maps[a], rep.maps[b])):
            return False
    return True


class CoverKernel(_Record):
    cover: tuple[tuple[str, int], ...]  # (vertex, multiplicity) in declaration order
    cover_dims: dict[str, int]
    kernel: Representation
    _fields = ("cover", "cover_dims", "kernel")
    _key = attrgetter(*_fields)


class RepMorphism(_Record):
    """Per-vertex matrix blocks of a map of representations (row convention)."""

    blocks: dict[str, linalg.Matrix]  # blocks[v]: src.dims[v] x dst.dims[v]
    _fields = ("blocks",)
    _key = attrgetter("blocks")

    def commutes(self, pair: AlmostGentlePair, src: Representation,
                 dst: Representation) -> bool:
        return all(linalg.mat_mul(src.maps[a.name], self.blocks[a.target])
                   == linalg.mat_mul(self.blocks[a.source], dst.maps[a.name])
                   for a in pair.quiver.arrows)


def _cover_data(pair: AlmostGentlePair, rep: Representation):
    """Generators, their path trees, cover slots, and per-vertex image rows
    of the cover map."""
    vertices, names, dims, maps = pair.quiver.vertices, pair.report.names, rep.dims, rep.maps
    gens: list[tuple[str, int]] = []  # (vertex, coordinate)
    for v, ins in zip(vertices, pair.report.ins):
        if dims[v]:
            rows = [row for a in ins for row in maps[names[a]] if row]
            pivots = linalg.rref(rows)[1] if rows else ()
            gens.extend((v, j) for j in range(dims[v]) if j not in pivots)

    trees = [_path_tree(pair, v) for v, _j in gens]
    slot_list: dict[str, list[Slot]] = {w: [] for w in vertices}
    images: dict[str, linalg.Matrix] = {w: [] for w in vertices}
    for g, tree in enumerate(trees):
        vecs: list[linalg.Row] = [{gens[g][1]: 1}]
        for k in range(1, len(tree.paths)):
            prev = vecs[tree.up[k]]
            vecs.append(linalg.row_times(maps[tree.paths[k][-1]], prev) if prev else {})
        for k, w in enumerate(tree.ends):
            slot_list[w].append((g, k))
            images[w].append(vecs[k])
    return gens, trees, slot_list, images


def cover_morphism(pair: AlmostGentlePair, rep: Representation) -> tuple[Representation, RepMorphism]:
    """The cover representation alongside the covering map's blocks."""
    pair.require_valid()
    gens, _trees, _slots, images = _cover_data(pair, rep)
    return _free_module(pair, [v for v, _j in gens]), RepMorphism(images)


def projective_cover_kernel(pair: AlmostGentlePair, rep: Representation) -> CoverKernel:
    """Minimal projective cover of rep and the kernel of the covering map.

    Generators are standard basis vectors completing the radical at each
    vertex; the cover map extends them along path actions; the kernel is the
    per-vertex left nullspace with the induced arrow action, built from the
    nonzero kernel coordinates only.  Exactness checks: dimension additivity
    and kernel inside the radical of the cover.
    """
    pair.require_valid()
    gens, trees, slot_list, images = _cover_data(pair, rep)
    cover_counts: dict[str, int] = {}
    for v, _j in gens:  # in declaration order
        cover_counts[v] = cover_counts.get(v, 0) + 1
    cover_dims = {w: len(slots) for w, slots in slot_list.items()}

    kdims = dict.fromkeys(cover_dims, 0)
    null_basis: dict[str, linalg.Matrix] = {}  # vertices where the kernel is nonzero
    free_pos: dict[str, dict[int, int]] = {}
    for w, n in cover_dims.items():
        if n:
            basis, free = linalg.left_nullspace(images[w], n, rep.dims[w])
            if basis:
                null_basis[w], kdims[w] = basis, len(basis)
                free_pos[w] = {f: k for k, f in enumerate(free)}
        # rank-nullity: equality here certifies the cover map is onto at w
        if n != rep.dims[w] + kdims[w]:
            raise AssertionError(f"cover/kernel dimension mismatch at {w}")

    kmaps = _empty_maps(pair, kdims)
    vertices, names, target = pair.quiver.vertices, pair.report.names, pair.report.target
    slot_index = {w: {sl: i for i, sl in enumerate(slot_list[w])} for w in null_basis}
    for w, basis in null_basis.items():
        slots = slot_list[w]
        if any(slots[ci][1] == 0 for kvec in basis for ci in kvec):  # path 0: a generator slot
            raise AssertionError("cover is not minimal: kernel meets a generator slot")
        for a in pair.report.outs[pair.quiver.vertex_index[w]]:
            t, name = vertices[target[a]], names[a]
            if t not in null_basis:
                continue
            index, rows = slot_index[t], kmaps[name]
            for r, kvec in enumerate(basis):
                # the cover's arrow action is injective on slots: no entries collide
                image: linalg.Row = {}
                for ci, x in kvec.items():
                    g, k = slots[ci]
                    k2 = trees[g].ext.get((k, name))
                    if k2 is not None:
                        image[index[(g, k2)]] = x
                if image:
                    rows[r] = linalg.coords_in_nullbasis(free_pos[t], image)
    return CoverKernel(tuple(cover_counts.items()), cover_dims, Representation(kdims, kmaps))


class PdimResult(_Frozen):
    """Finite(n), or AtLeast(n) when n covering steps left a nonzero kernel."""

    finite: bool
    value: int
    _fields = ("finite", "value")
    _key = attrgetter(*_fields)

    def __str__(self) -> str:
        return str(self.value) if self.finite else f">={self.value}"


def _slot_graph(pair: AlmostGentlePair, rep: Representation) -> tuple[list[str], list[tuple[str, int, int, int]]]:
    """The vertex of each basis slot, numbered vertex by vertex, and an edge
    (arrow, slot, slot, value) per nonzero entry, read off the support's
    out-arrows and their nonempty rows."""
    report, vidx, vertices = pair.report, pair.quiver.vertex_index, pair.quiver.vertices
    names, target, outs = report.names, report.target, report.outs
    dims, maps = rep.dims, rep.maps
    offset: dict[str, int] = {}
    label: list[str] = []
    for v in vertices:
        if dims[v]:
            offset[v] = len(label)
            label += [v] * dims[v]
    edges: list[tuple[str, int, int, int]] = []
    for v, s in offset.items():
        for a in outs[vidx[v]]:
            name = names[a]
            for i, row in enumerate(maps[name], s):
                if row:
                    t = offset[vertices[target[a]]]
                    edges += [(name, i, t + j, x) for j, x in row.items()]
    return label, edges


def _components(pair: AlmostGentlePair, rep: Representation) -> list[Representation]:
    """Split along the support graph of the chosen basis (a direct sum).

    A module with one component is returned as itself, not copied.
    """
    label, edges = _slot_graph(pair, rep)
    n = len(label)
    if not n:
        return []
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _a, u, w, _x in edges:
        parent[find(u)] = find(w)
    roots = [find(x) for x in range(n)]
    number = {r: c for c, r in enumerate(dict.fromkeys(roots))}  # by first slot
    if len(number) == 1:
        return [rep]
    # component and local index of each slot
    comp_of = [number[r] for r in roots]
    local: list[int] = []
    comp_dims = [dict.fromkeys(pair.quiver.vertices, 0) for _c in number]
    for x, v in enumerate(label):
        dims = comp_dims[comp_of[x]]
        local.append(dims[v])
        dims[v] += 1
    comp_maps = [_empty_maps(pair, dims) for dims in comp_dims]
    for a, u, w, x in edges:
        comp_maps[comp_of[u]][a][local[u]][local[w]] = x
    comps = [Representation(dims, maps) for dims, maps in zip(comp_dims, comp_maps)]
    comps.sort(key=lambda r: (r.total_dim(), sorted(r.dim_vector().items())))
    return comps


def _component_key(pair: AlmostGentlePair, rep: Representation):
    """Canonical iso key for a connected path-shaped module, else None.

    When the slot graph (one node per basis slot, one edge per nonzero
    entry) is a path, every scalar normalizes to 1 over the rationals, so
    the walk of vertex labels and directed arrow labels determines the
    module up to isomorphism; reflection is handled by taking the smaller
    of the two end-to-end encodings.  Covers every string module, vertex
    revisits included.
    """
    if sum(rep.dims.values()) == 1:  # a simple, unless a loop acts by a nonzero scalar
        v = next(w for w, d in rep.dims.items() if d)
        names = pair.report.names
        if any(row for a in pair.report.outs[pair.quiver.vertex_index[v]] for row in rep.maps[names[a]]):
            return None
        return ((v,), ())
    label, edges = _slot_graph(pair, rep)
    n = len(label)
    if len(edges) != n - 1:
        return None
    adj: list[list[tuple[int, str, int]]] = [[] for _k in range(n)]
    for a, u, w, _x in edges:
        adj[u].append((w, a, 1))
        adj[w].append((u, a, -1))
    if any(len(nbrs) > 2 for nbrs in adj):
        return None  # a tree but not a path, or not connected
    ends = [k for k in range(n) if len(adj[k]) == 1]
    best = None
    for start in ends:
        verts = [label[start]]
        steps: list[tuple[str, int]] = []
        prev, cur = -1, start
        while True:
            nbrs = [t for t in adj[cur] if t[0] != prev]
            if not nbrs:
                break
            nxt, aname, direction = nbrs[0]
            steps.append((aname, direction))
            verts.append(label[nxt])
            prev, cur = cur, nxt
        if len(verts) < n:
            return None  # a path plus cycles elsewhere: not connected
        enc = (tuple(verts), tuple(steps))
        if best is None or enc < best:
            best = enc
    return best


BUDGET_DIM = 200_000  # the largest module the oracle covers


KeyedComponent = tuple[object, Representation]  # (iso key or None, component)


def _syzygy(pair: AlmostGentlePair, rep: Representation, key
            ) -> tuple[tuple[tuple[str, int], ...], tuple[KeyedComponent, ...]]:
    """One syzygy step: the minimal cover of rep and its kernel's components.

    key is rep's iso key, or None for a module without one.  The step is
    stored per pair under the key, or, without a key, rep's
    exact entries.  Each kernel component is keyed once, when it is made,
    and comes paired with its key.  Every caller gets the same stored
    components, so none may modify them.
    """
    steps = pair.memo("syzygy", dict)
    if key is None:
        key = ("entries", tuple(rep.dims[v] for v in pair.quiver.vertices),
               tuple(tuple(tuple(row.items()) for row in rep.maps[a.name])
                     for a in pair.quiver.arrows))
    step = steps.get(key)
    if step is None:
        ck = projective_cover_kernel(pair, rep)
        step = steps[key] = ck.cover, tuple(_keyed(pair, comp) for comp in _components(pair, ck.kernel))
    return step


def _pdim(pair: AlmostGentlePair, rep: Representation, key, hardcap: int,
          stack: frozenset = frozenset(), depth: int = 0) -> int | None:
    """Projective dimension of a nonzero rep (iso key: key); None encodes infinity.

    Finite values are stored per pair under the iso key.  A key
    met again below itself is a syzygy recurrence, hence infinite; so is
    going deeper than hardcap.
    """
    memo = pair.memo("pdim", dict)
    if key is not None:
        if key in memo:
            return memo[key]
        if key in stack:
            return None
        stack = stack | {key}
    if depth > hardcap:
        return None
    if rep.total_dim() > BUDGET_DIM:
        raise AssertionError("oracle dimension budget exceeded")
    val = 0
    for sub_key, comp in _syzygy(pair, rep, key)[1]:
        sub = _pdim(pair, comp, sub_key, hardcap, stack, depth + 1)
        if sub is None:
            return None
        val = max(val, sub + 1)
    if key is not None:
        memo[key] = val
    return val


def oracle_pdim(pair: AlmostGentlePair, rep: Representation, cutoff: int) -> PdimResult:
    """Iterated minimal covers: Finite(n) when the n-th kernel vanishes.

    Infinitude is detected by syzygy recurrence (with a depth backstop), and
    reported as AtLeast(cutoff) per the agreement convention.
    """
    pair.require_valid()
    return _keyed_pdim(pair, _keyed(pair, rep), cutoff)


def _keyed_pdim(pair: AlmostGentlePair, module: KeyedComponent, cutoff: int) -> PdimResult:
    """oracle_pdim of a module that comes with its iso key (or None)."""
    key, rep = module
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    hardcap = max(cutoff, len(pair.quiver.vertices) + len(pair.quiver.arrows) + 4)
    val = _pdim(pair, rep, key, hardcap) if rep.total_dim() else 0
    if val is None:
        return PdimResult(False, cutoff)
    return PdimResult(True, val)


class Mismatch(_Frozen):
    vertex: str | None
    quantity: str
    formula: str
    oracle: str
    _fields = ("vertex", "quantity", "formula", "oracle")
    _key = attrgetter(*_fields)


class AgreementReport(_Frozen):
    mismatches: tuple[Mismatch, ...]
    checked: int
    _fields = ("mismatches", "checked")
    _key = attrgetter(*_fields)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _agrees(formula: LengthOrInf, orc: PdimResult) -> bool:
    if formula.is_finite:
        return orc.finite and orc.value == formula.value
    return not orc.finite


LEVELS_CAP = 6  # the last resolution level compared per module, counted from 0
LEVEL_DIM_BUDGET = 120  # the largest level the comparison covers


def check_against_formulas(pair: AlmostGentlePair, cutoff: int = 40) -> AgreementReport:
    """Cross-validate every closed-form dimension against the oracle.

    Per vertex: projective dimensions of the simple and the injective, the
    invalid-vertex test against oracle projectivity of the injective's socle
    block, and the per-level dimension vectors of the symbolic resolutions
    against oracle kernels: levels 0 to LEVELS_CAP, stopping before the
    first level whose module has total dimension above LEVEL_DIM_BUDGET.
    """
    from .homdim import pdim_injective, pdim_simple
    from .syzygy import is_invalid_vertex
    from .quiver import vertex_type

    pair.require_valid()
    mismatches: list[Mismatch] = []
    checked = 0

    for v in pair.quiver.vertices:
        # S(v) and E(v) are built and keyed once here, for every check below
        modules = {}
        for kind in ("simple", "injective"):
            modules[kind] = _keyed(pair, rep_of(pair, kind, v))

        frm = pdim_simple(pair, v).value
        orc = _keyed_pdim(pair, modules["simple"], cutoff)
        checked += 1
        if not _agrees(frm, orc):
            mismatches.append(Mismatch(v, "pdim_simple", str(frm), str(orc)))

        frm = pdim_injective(pair, v).value
        orc = _keyed_pdim(pair, modules["injective"], cutoff)
        checked += 1
        if not _agrees(frm, orc):
            mismatches.append(Mismatch(v, "pdim_injective", str(frm), str(orc)))

        c, _d = vertex_type(pair, v)
        if c >= 1:
            invalid = is_invalid_vertex(pair, v)[0]
            proj = _oracle_psi0_projective(pair, v, modules["injective"])
            checked += 1
            if invalid != proj:
                mismatches.append(Mismatch(v, "psi0_projective", str(invalid), str(proj)))

        for kind in ("simple", "injective"):
            for m in _compare_levels(pair, v, kind, modules[kind]):
                mismatches.append(m)
            checked += 1

    return AgreementReport(tuple(mismatches), checked)


# A resolution level is a multiset of modules: iso class -> [representative,
# multiplicity].  The class of a path-shaped component is its iso key; a
# component without one is a class of its own, numbered by its position.
Level = dict


def _add(level: Level, key, comp: Representation, mult: int = 1) -> None:
    level.setdefault(key if key is not None else len(level), [comp, 0])[1] += mult


def _keyed(pair: AlmostGentlePair, rep: Representation) -> KeyedComponent:
    """A fresh module with its iso key, keyed once, here."""
    return _component_key(pair, rep), rep


def _cover_kernel_componentwise(pair: AlmostGentlePair,
                                level: Level) -> tuple[dict[str, int], Level]:
    """Cover multiset and kernel level, one small cover per class.

    Minimal covers are additive over direct sums, so this agrees with
    covering the whole module at once while keeping the elimination sizes
    bounded by component sizes; a class of multiplicity m counts m times.
    """
    cover_counts: dict[str, int] = {}
    kernel: Level = {}
    for cls, (comp, mult) in level.items():
        cover, kcomps = _syzygy(pair, comp, cls if isinstance(cls, tuple) else None)
        for w, m in cover:
            cover_counts[w] = cover_counts.get(w, 0) + m * mult
        for key, kcomp in kcomps:
            _add(kernel, key, kcomp, mult)
    return cover_counts, kernel


def _dim_sum(level: Level) -> dict[str, int]:
    """The dimension vector of the direct sum of a level."""
    total: dict[str, int] = {}
    for comp, mult in level.values():
        for w, n in comp.dims.items():
            if n:
                total[w] = total.get(w, 0) + n * mult
    return total


def _module_level(module: KeyedComponent) -> Level:
    """An indecomposable module with its iso key, as a level of its own."""
    level: Level = {}
    _add(level, *module)
    return level


def _oracle_psi0_projective(pair: AlmostGentlePair, v: str, injective: KeyedComponent) -> bool:
    """Projectivity of the socle block of E(v) by pure dimension bookkeeping.

    injective is E(v) with its iso key.  Omega_2(E(v)) equals the first
    syzygy of the per-branch leftovers alone exactly when the block is
    projective; minimal covers are additive over direct sums, so dimension
    vectors decide this.  Each leftover string is built and keyed once per
    pair, and stored there.
    """
    from .syzygy import omega1_injective

    omega1 = _cover_kernel_componentwise(pair, _module_level(injective))[1]
    omega2 = _cover_kernel_componentwise(pair, omega1)[1]
    pieces: Level = {}
    for s in omega1_injective(pair, v)[1]:
        ds = DirectedString(s.arrows, s.vertex)
        _add(pieces, *pair.memo(("leftover", ds), lambda: _keyed(pair, rep_of(pair, "string", ds))))
    leftovers = _cover_kernel_componentwise(pair, pieces)[1]
    return _dim_sum(omega2) == _dim_sum(leftovers)


def _compare_levels(pair: AlmostGentlePair, v: str, kind: str, module: KeyedComponent):
    """Symbolic resolution levels of module, S(v) or E(v) with its iso key, against the oracle's."""
    from .syzygy import resolve_symbolic

    if module[1].total_dim() > LEVEL_DIM_BUDGET:
        return
    # only the levels compared are built: the symbolic side stops after its
    # first syzygy over budget, and each level's kernel has that syzygy's
    # dimension vector unless a mismatch ends the loop first
    res = resolve_symbolic(pair, kind, v, max_steps=LEVELS_CAP, max_dim=LEVEL_DIM_BUDGET)
    level = _module_level(module)
    for k, sym in enumerate(res.levels):
        cover_counts, level = _cover_kernel_componentwise(pair, level)
        sym_cover = dict(sym.cover)
        if cover_counts != sym_cover:
            yield Mismatch(v, f"{kind}-resolution-cover-level-{k}",
                           str(sorted(sym_cover.items())), str(sorted(cover_counts.items())))
            return
        kernel_dims = _dim_sum(level)
        sym_dims = sym.syzygy.dim_vector(pair)
        if sym_dims != kernel_dims:
            yield Mismatch(v, f"{kind}-resolution-kernel-level-{k}",
                           str(sorted(sym_dims.items())), str(sorted(kernel_dims.items())))
            return
