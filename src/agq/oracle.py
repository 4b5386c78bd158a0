"""Independent ground truth: exact quiver representations, minimal covers,
kernels, and brute-force projective dimensions.

Everything here is plain linear algebra over the rationals; the only
combinatorial input is the basis-path structure of the projectives.  A
module lives on its support, keyed by vertex and arrow index, so the work
follows the module, not the quiver; names appear only where they enter
(rep_of's arguments, check_relations' relation pairs) or leave (a cover's
vertices, a mismatch's text).  Kernels are split into support components
(a basis-level direct sum decomposition).  Only a path-shaped component
(every string module is one) has a sound canonical iso key, made once,
with the component.  Each syzygy step, each projective dimension and each
per-branch leftover string of the socle-block check is stored per pair
under the key, and repeating syzygies are detected by it: a module
isomorphic to a summand of one of its own higher syzygies has infinite
projective dimension, and so has every module on the walk down to it.
Only that proof of infinity is stored; one met at the depth backstop is
not.  The level comparison walks each resolution level as a multiset of
iso classes, covering and summing each class once.
"""

from __future__ import annotations

from collections import Counter

from . import linalg
from .quiver import AlmostGentlePair, _Frozen, _Record
from .strings import DirectedString, _check_string

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .forbidden import LengthOrInf


class Representation(_Record):
    """dims per vertex and one matrix per arrow, acting on row vectors.

    Keyed by index on the module's support: dims[i] > 0 per support vertex
    i, and maps[a] per out-arrow a of the support, a list of dims[s(a)]
    sparse rows ({column: value}, nonzero entries only) with columns below
    dims[t(a)].  Nothing is stored elsewhere, so a read off the support is
    dims.get(i, 0) or maps.get(a, []).  A relation pair must compose to the
    zero matrix.
    """

    dims: dict[int, int]
    maps: dict[int, linalg.Matrix]
    _fields = ("dims", "maps")

    def __init__(self, dims: dict[int, int], maps: dict[int, linalg.Matrix]) -> None:
        self.dims = dims
        self.maps = maps

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self, pair: AlmostGentlePair) -> dict[str, int]:
        """The nonzero dimensions by vertex name."""
        vertices = pair.quiver.vertices
        return {vertices[i]: n for i, n in self.dims.items() if n}


def _zero(pair: AlmostGentlePair, dims: dict[int, int]) -> Representation:
    """The module on the support dims, by vertex index, with zero maps: one
    empty row per basis vector for each out-arrow of the support."""
    outs = pair.report.outs
    maps = {a: [{} for _i in range(n)] for v, n in dims.items() for a in outs[v]}
    return Representation(dims, maps)


class _PathTree(_Frozen):
    """The nonzero paths out of one vertex (or into it), shortest first.

    Path 0 is the stationary path.  Path k > 0 is path up[k] made one arrow
    longer, by arrow[k], at its far end ends[k]; local[k] numbers the paths
    that share that far end, and dims counts them per vertex index.  Out of
    the vertex, nxt[k] is path k > 0 followed by its nonzero continuation.
    """

    ends: list[int]
    up: list[int]
    local: list[int]
    arrow: list[int]
    nxt: list[int]
    dims: dict[int, int]
    _fields = ("ends", "up", "local", "arrow", "nxt", "dims")


def _path_tree(pair: AlmostGentlePair, v: int, forward: bool = True) -> _PathTree:
    """Paths out of (forward) or into the vertex index v, enumerated once
    per pair.  A nonzero path grows at its far end only along the nonzero
    successor (or predecessor); paths of one length are in the order of
    their arrow indices, read from the path's start."""
    def compute() -> _PathTree:
        report = pair.report
        step, far, first = ((report.nonzero_succ, report.target, report.outs[v]) if forward
                            else (report.nonzero_pred, report.source, report.ins[v]))
        tree = _PathTree([v], [-1], [0], [-1], [-1], {v: 1})
        frontier = [(0, a) for a in first]  # (shorter path, the arrow that extends it)
        while frontier:
            if not forward:
                frontier.sort(key=lambda e: e[1])  # a path into v starts with the new arrow
            grown = []
            for up, a in frontier:
                k, end = len(tree.ends), far[a]
                tree.ends.append(end)
                tree.up.append(up)
                tree.arrow.append(a)
                tree.nxt.append(-1)
                tree.nxt[up] = k if up else -1
                tree.local.append(tree.dims.get(end, 0))
                tree.dims[end] = tree.local[k] + 1
                if step[a] >= 0:
                    grown.append((k, step[a]))
            frontier = grown
        return tree

    return pair.memo(("paths", v, forward), compute)


Slot = tuple[int, int]  # (generator, path index in that generator's tree)


def _free_module(pair: AlmostGentlePair, tops: list[int]) -> Representation:
    """The direct sum of the projectives P(v), v in tops, on its path basis.

    Slots (g, k) at each vertex are listed generator by generator, then in
    path order; the last arrow of path k sends slot (g, up[k]) to (g, k).
    """
    trees = [_path_tree(pair, v) for v in tops]
    slots: dict[int, list[Slot]] = {}
    for g, tree in enumerate(trees):
        for k, w in enumerate(tree.ends):
            slots.setdefault(w, []).append((g, k))
    free = _zero(pair, {w: len(s) for w, s in slots.items()})
    index = {w: {sl: i for i, sl in enumerate(s)} for w, s in slots.items()}
    for w, s in slots.items():
        for i, (g, k) in enumerate(s):
            if k:
                tree = trees[g]
                up = tree.up[k]
                free.maps[tree.arrow[k]][index[tree.ends[up]][(g, up)]][i] = 1
    return free


def rep_of(pair: AlmostGentlePair, kind: str, arg) -> Representation:
    """Representation of Simple(v) | Projective(v) | Injective(v) | DirString(ds)."""
    pair.require_valid()
    vidx = pair.quiver.vertex_index
    if kind == "simple":
        return _zero(pair, {vidx[pair.require_vertex(arg)]: 1})

    if kind == "string":
        ds: DirectedString = _check_string(pair, arg)
        report, aidx = pair.report, pair.quiver.arrow_index
        arrows = [aidx[a] for a in ds.arrows]
        # a vertex may repeat (zero-wraparound cycles); arrows never do
        source = report.source[arrows[0]] if arrows else vidx[ds.vertex]  # type: ignore[index]
        verts = [source] + [report.target[a] for a in arrows]
        slot_of: list[int] = []
        counts: dict[int, int] = {}
        for w in verts:
            slot_of.append(counts.get(w, 0))
            counts[w] = slot_of[-1] + 1
        rep = _zero(pair, counts)
        for i, a in enumerate(arrows):
            rep.maps[a][slot_of[i]][slot_of[i + 1]] = 1
        return rep

    if kind == "projective":
        return _free_module(pair, [vidx[pair.require_vertex(arg)]])

    if kind == "injective":
        tree = _path_tree(pair, vidx[pair.require_vertex(arg)], forward=False)
        rep = _zero(pair, tree.dims)
        for k in range(1, len(tree.ends)):
            rep.maps[tree.arrow[k]][tree.local[k]][tree.local[tree.up[k]]] = 1
        return rep

    raise ValueError(f"unknown module kind {kind!r}")


def check_relations(pair: AlmostGentlePair, rep: Representation) -> bool:
    """Every relation pair composes to zero."""
    aidx, maps = pair.quiver.arrow_index, rep.maps
    for a, b in pair.relations:
        if any(linalg.mat_mul(maps.get(aidx[a], []), maps.get(aidx[b], []))):
            return False
    return True


class CoverKernel(_Record):
    cover: tuple[tuple[str, int], ...]  # (vertex, multiplicity) in declaration order
    kernel: Representation
    _fields = ("cover", "kernel")


class RepMorphism(_Record):
    """Per-vertex matrix blocks of a map of representations (row convention)."""

    blocks: dict[int, linalg.Matrix]  # blocks[i]: src.dims[i] x dst.dims[i] at vertex index i; none off src's support
    _fields = ("blocks",)

    def commutes(self, pair: AlmostGentlePair, src: Representation,
                 dst: Representation) -> bool:
        blocks, report = self.blocks, pair.report
        return all(linalg.mat_mul(src.maps.get(a, []), blocks.get(report.target[a], []))
                   == linalg.mat_mul(blocks.get(report.source[a], []), dst.maps.get(a, []))
                   for a in range(len(pair.quiver.arrows)))


def _cover_data(pair: AlmostGentlePair, rep: Representation):
    """Generators, their path trees, cover slots, and per-vertex image rows
    of the cover map, all on the cover's support."""
    ins, dims, maps = pair.report.ins, rep.dims, rep.maps
    gens: list[tuple[int, int]] = []  # (vertex, coordinate), in declaration order
    for v in sorted(dims):
        rows = [row for a in ins[v] for row in maps.get(a, ()) if row]
        pivots = linalg.rref(rows)[1] if rows else ()
        gens.extend((v, j) for j in range(dims[v]) if j not in pivots)

    trees = [_path_tree(pair, v) for v, _j in gens]
    slots: dict[int, list[Slot]] = {}
    images: dict[int, linalg.Matrix] = {}
    for g, tree in enumerate(trees):
        vecs: list[linalg.Row] = [{gens[g][1]: 1}]
        for k in range(1, len(tree.ends)):
            prev = vecs[tree.up[k]]
            vecs.append(linalg.row_times(maps[tree.arrow[k]], prev) if prev else {})
        for k, w in enumerate(tree.ends):
            slots.setdefault(w, []).append((g, k))
            images.setdefault(w, []).append(vecs[k])
    return gens, trees, slots, images


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
    gens, trees, slots, images = _cover_data(pair, rep)
    vertices = pair.quiver.vertices
    cover_counts = Counter(v for v, _j in gens)  # in declaration order

    kdims: dict[int, int] = {}
    null_basis: dict[int, linalg.Matrix] = {}  # vertices where the kernel is nonzero
    free_pos: dict[int, dict[int, int]] = {}
    for w, sl in slots.items():
        n, d = len(sl), rep.dims.get(w, 0)
        basis, free = linalg.left_nullspace(images[w], n, d)
        if basis:
            null_basis[w], kdims[w] = basis, len(basis)
            free_pos[w] = {f: k for k, f in enumerate(free)}
        # rank-nullity: equality here certifies the cover map is onto at w
        if n != d + len(basis):
            raise AssertionError(f"cover/kernel dimension mismatch at {vertices[w]}")
    if not rep.dims.keys() <= slots.keys():
        raise AssertionError("cover/kernel dimension mismatch off the cover's support")

    kernel = _zero(pair, kdims)
    report = pair.report
    slot_index = {w: {sl: i for i, sl in enumerate(slots[w])} for w in null_basis}
    for w, basis in null_basis.items():
        sl = slots[w]
        if any(sl[ci][1] == 0 for kvec in basis for ci in kvec):  # path 0: a generator slot
            raise AssertionError("cover is not minimal: kernel meets a generator slot")
        for a in report.outs[w]:
            t = report.target[a]
            if t not in null_basis:
                continue
            index, rows = slot_index[t], kernel.maps[a]
            for r, kvec in enumerate(basis):
                # the cover's arrow action is injective on slots: no entries collide
                image: linalg.Row = {}
                for ci, x in kvec.items():
                    g, k = sl[ci]
                    k2 = trees[g].nxt[k]
                    if k2 >= 0 and trees[g].arrow[k2] == a:
                        image[index[(g, k2)]] = x
                if image:
                    rows[r] = linalg.coords_in_nullbasis(free_pos[t], image)
    return CoverKernel(tuple((vertices[v], m) for v, m in cover_counts.items()), kernel)


class PdimResult(_Frozen):
    """Finite(n), or AtLeast(n) when n covering steps left a nonzero kernel."""

    finite: bool
    value: int
    _fields = ("finite", "value")

    def __str__(self) -> str:
        return str(self.value) if self.finite else f">={self.value}"


def _slot_graph(pair: AlmostGentlePair, rep: Representation) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """The vertex index of each basis slot, numbered vertex by vertex, and
    an edge (arrow, slot, slot, value) per nonzero entry, read off the
    support's out-arrows and their nonempty rows."""
    target, outs, maps = pair.report.target, pair.report.outs, rep.maps
    offset: dict[int, int] = {}
    label: list[int] = []
    for v, n in rep.dims.items():
        offset[v] = len(label)
        label += [v] * n
    edges: list[tuple[int, int, int, int]] = []
    for v, s in offset.items():
        for a in outs[v]:
            for i, row in enumerate(maps[a], s):
                if row:
                    t = offset[target[a]]
                    edges += [(a, i, t + j, x) for j, x in row.items()]
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
    comp_dims: list[dict[int, int]] = [{} for _c in number]
    for x, v in enumerate(label):
        dims = comp_dims[comp_of[x]]
        local.append(dims.get(v, 0))
        dims[v] = local[x] + 1
    comps = [_zero(pair, dims) for dims in comp_dims]
    for a, u, w, x in edges:
        comps[comp_of[u]].maps[a][local[u]][local[w]] = x
    return comps


def _component_key(pair: AlmostGentlePair, rep: Representation):
    """Canonical iso key for a connected path-shaped module, else None.

    When the slot graph (one node per basis slot, one edge per nonzero
    entry) is a path, every scalar normalizes to 1 over the rationals, so
    the walk of vertex and directed arrow indices determines the module up
    to isomorphism; reflection is handled by taking the smaller of the two
    end-to-end encodings.  Covers every string module, revisits included,
    and a simple, a walk of one slot, unless a loop acts by a nonzero scalar.
    """
    label, edges = _slot_graph(pair, rep)
    n = len(label)
    if len(edges) != n - 1:
        return None
    adj: list[list[tuple[int, int, int]]] = [[] for _k in range(n)]
    for a, u, w, _x in edges:
        adj[u].append((w, a, 1))
        adj[w].append((u, a, -1))
    if any(len(nbrs) > 2 for nbrs in adj):
        return None  # a tree but not a path, or not connected
    ends = [k for k in range(n) if len(adj[k]) <= 1]  # one slot alone is its own end
    best = None
    for start in ends:
        verts = [label[start]]
        steps: list[tuple[int, int]] = []
        prev, cur = -1, start
        while True:
            nbrs = [t for t in adj[cur] if t[0] != prev]
            if not nbrs:
                break
            nxt, arrow, direction = nbrs[0]
            steps.append((arrow, direction))
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
            ) -> tuple[tuple[tuple[int, int], ...], tuple[KeyedComponent, ...]]:
    """One syzygy step: the minimal cover of rep, as (vertex index,
    multiplicity) pairs, and its kernel's components, each with its key.

    key is rep's iso key, or None for a module without one.  The step is
    stored per pair under the key, or else rep's exact entries.  Every
    caller gets the same stored components, so none may modify them.
    """
    steps = pair.memo("syzygy", dict)
    if key is None:
        key = ("entries", tuple(sorted(rep.dims.items())),
               tuple((a, tuple(tuple(row.items()) for row in rows)) for a, rows in sorted(rep.maps.items())))
    step = steps.get(key)
    if step is None:
        ck, vidx = projective_cover_kernel(pair, rep), pair.quiver.vertex_index
        step = steps[key] = (tuple((vidx[w], m) for w, m in ck.cover),
                             tuple(_keyed(pair, comp) for comp in _components(pair, ck.kernel)))
    return step


def _pdim(pair: AlmostGentlePair, rep: Representation, key, hardcap: int) -> int | None:
    """Projective dimension of a nonzero rep (iso key: key); None encodes infinity.

    A walk down the syzygies with an explicit stack of open modules, so its
    depth is not bounded by Python's recursion limit.  Finite values are
    stored per pair under the iso key.  A key met again below itself is a
    syzygy recurrence, hence infinite, and so is every keyed module open
    above it, which has it as a summand of a syzygy: that infinity is stored
    too.  Going deeper than hardcap is infinite as well, but not stored.
    """
    memo = pair.memo("pdim", dict)
    path: list[list] = []  # per open module: its key, its kernel components left, its value so far
    open_keys: set = set()
    module: KeyedComponent | None = (key, rep)
    while True:
        if module is None:  # the top module's components are all settled
            key, _left, value = path.pop()
            if key is not None:
                open_keys.remove(key)
                memo[key] = value
        else:
            key, rep = module
            if key is not None and (key in memo or key in open_keys):
                value = memo.get(key)
                if value is None:  # stored infinite, or a recurrence
                    memo.update((k, None) for k, _left, _value in path if k is not None)
                    return None
            elif len(path) > hardcap:
                return None
            else:
                if rep.total_dim() > BUDGET_DIM:
                    raise AssertionError("oracle dimension budget exceeded")
                if key is not None:
                    open_keys.add(key)
                path.append([key, iter(_syzygy(pair, rep, key)[1]), 0])
                module = next(path[-1][1], None)
                continue
        if not path:
            return value
        top = path[-1]
        top[2] = max(top[2], value + 1)
        module = next(top[1], None)


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
    val = _pdim(pair, rep, key, hardcap) if rep.dims else 0
    if val is None:
        return PdimResult(False, cutoff)
    return PdimResult(True, val)


class Mismatch(_Frozen):
    vertex: str | None
    quantity: str
    formula: str
    oracle: str
    _fields = ("vertex", "quantity", "formula", "oracle")


class AgreementReport(_Frozen):
    mismatches: tuple[Mismatch, ...]
    checked: int
    _fields = ("mismatches", "checked")

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

    for i, v in enumerate(pair.quiver.vertices):
        # S(v) and E(v) are built and keyed once here, for every check below
        modules = {kind: _keyed(pair, rep_of(pair, kind, v)) for kind in ("simple", "injective")}

        for kind, formula in (("simple", pdim_simple), ("injective", pdim_injective)):
            frm, orc = formula(pair, v).value, _keyed_pdim(pair, modules[kind], cutoff)
            checked += 1
            if not _agrees(frm, orc):
                mismatches.append(Mismatch(v, f"pdim_{kind}", str(frm), str(orc)))

        c, _d = vertex_type(pair, v)
        if c >= 1:
            invalid = is_invalid_vertex(pair, v)[0]
            proj = _oracle_psi0_projective(pair, i, modules["injective"])
            checked += 1
            if invalid != proj:
                mismatches.append(Mismatch(v, "psi0_projective", str(invalid), str(proj)))

        for kind in ("simple", "injective"):
            mismatches.extend(_compare_levels(pair, i, kind, modules[kind]))
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
                                level: Level) -> tuple[dict[int, int], Level]:
    """Cover multiset per vertex index and kernel level, one small cover per class.

    Minimal covers are additive over direct sums, so this agrees with
    covering the whole module at once while keeping the elimination sizes
    bounded by component sizes; a class of multiplicity m counts m times.
    """
    cover_counts: dict[int, int] = {}
    kernel: Level = {}
    for cls, (comp, mult) in level.items():
        cover, kcomps = _syzygy(pair, comp, cls if isinstance(cls, tuple) else None)
        for w, m in cover:
            cover_counts[w] = cover_counts.get(w, 0) + m * mult
        for key, kcomp in kcomps:
            _add(kernel, key, kcomp, mult)
    return cover_counts, kernel


def _dim_sum(level: Level) -> dict[int, int]:
    """The dimension vector of the direct sum of a level, by vertex index."""
    total: dict[int, int] = {}
    for comp, mult in level.values():
        for w, n in comp.dims.items():
            total[w] = total.get(w, 0) + n * mult
    return total


def _level_of(modules: list[KeyedComponent]) -> Level:
    """The multiset of modules, each with its iso key."""
    level: Level = {}
    for module in modules:
        _add(level, *module)
    return level


def _leftovers(pair: AlmostGentlePair, v: int) -> list[KeyedComponent]:
    """The per-branch leftovers of Omega_1(E(v)), v a vertex index, each
    built and keyed once per pair: at the source of the first arrow h of
    each branch of E(v), every other out-arrow a leaves its chain from its
    nonzero successor on, or the simple at its target."""
    report, succ = pair.report, pair.report.nonzero_succ

    def build(a: int) -> KeyedComponent:
        run, y = [], succ[a]
        while y >= 0:
            run.append(report.names[y])
            y = succ[y]
        ds = DirectedString(tuple(run), None if run else pair.quiver.vertices[report.target[a]])
        return _keyed(pair, rep_of(pair, "string", ds))

    # the branches' first arrows are the last arrows of E(v)'s path tree that grow no further
    heads = [h for h in _path_tree(pair, v, forward=False).arrow[1:] if report.nonzero_pred[h] < 0]
    return [pair.memo(("leftover", succ[a], report.target[a]), lambda: build(a))
            for h in heads for a in report.outs[report.source[h]] if a != h]


def _oracle_psi0_projective(pair: AlmostGentlePair, v: int, injective: KeyedComponent) -> bool:
    """Projectivity of the socle block of E(v) by pure dimension bookkeeping.

    v is a vertex index and injective is E(v) with its iso key.  Omega_2(E(v))
    equals the first syzygy of the per-branch leftovers alone exactly when
    the block is projective; minimal covers are additive over direct sums,
    so dimension vectors decide this.
    """
    omega1 = _cover_kernel_componentwise(pair, _level_of([injective]))[1]
    omega2 = _cover_kernel_componentwise(pair, omega1)[1]
    leftovers = _cover_kernel_componentwise(pair, _level_of(_leftovers(pair, v)))[1]
    return _dim_sum(omega2) == _dim_sum(leftovers)


def _spelled(pair: AlmostGentlePair, counts: dict[int, int]) -> str:
    """Counts by vertex index, spelled as sorted (vertex name, count) pairs."""
    vertices = pair.quiver.vertices
    return str(sorted((vertices[w], m) for w, m in counts.items()))


def _compare_levels(pair: AlmostGentlePair, v: int, kind: str, module: KeyedComponent):
    """Symbolic resolution levels of module, S(v) or E(v) at the vertex
    index v with its iso key, against the oracle's: the stepping core's
    covers per vertex index and node counts, summed by the summand graph."""
    from .syzygy import _levels, _summand_graph

    if module[1].total_dim() > LEVEL_DIM_BUDGET:
        return
    graph, vertices = _summand_graph(pair), pair.quiver.vertices
    # the symbolic side stops after its first syzygy over budget, and each
    # level's kernel has that syzygy's dimension vector unless a mismatch ends the loop first
    level = _level_of([module])
    for k, (sym_cover, syzygy) in enumerate(_levels(pair, kind, v, LEVELS_CAP, LEVEL_DIM_BUDGET)):
        cover_counts, level = _cover_kernel_componentwise(pair, level)
        if cover_counts != sym_cover:
            yield Mismatch(vertices[v], f"{kind}-resolution-cover-level-{k}",
                           _spelled(pair, sym_cover), _spelled(pair, cover_counts))
            return
        kernel_dims = _dim_sum(level)
        sym_dims = graph.dim_sum(pair, syzygy)
        if sym_dims != kernel_dims:
            yield Mismatch(vertices[v], f"{kind}-resolution-kernel-level-{k}",
                           _spelled(pair, sym_dims), _spelled(pair, kernel_dims))
            return
