"""Geometric thinning of control-point sets.

:func:`select` walks concentric annuli around a first point, repeatedly
picking a candidate from the ring just outside the influence ball of the
last pick and knocking out everything an influence ball covers. The
result is a subset where selected points are pairwise at least R apart
(separation) while every candidate stays within R of some selected point
(covering). Shrinking R below the minimum candidate spacing therefore
returns the whole candidate set.

:func:`select_multi` runs one selection per named boundary region with a
per-region radius; :func:`enrich` unions in whole feature groups (edge
curves and the like) afterwards. :func:`select_random` and
:func:`random_baseline_stats` support comparing against same-cardinality
random subsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DegenerateSampleError
from .mesh import _int_ids, _node_ids, sorted_unique

__all__ = [
    "RegionParams",
    "SelectionParams",
    "SelectionResult",
    "BaselineStats",
    "select",
    "select_multi",
    "enrich",
    "select_random",
    "random_baseline_stats",
    "write_selection",
    "read_selection",
]

STRATEGIES = ("random", "centroid_nearest", "farthest_point")

# a candidate set of n points gets its n x n distance matrix memoized on
# the mesh when n * n fits this many entries (512 KiB, one chunk of the
# weight kernel): the wing's faces and the tunnel's obstacle do, the
# tunnel's outer faces do not
_MEMO_BUDGET = 65_536
# bytes one mesh's memo may hold: three 3-D sets of 256 points with their
# coordinates (530,432 B each); a fourth would take it to 2,121,728 B
_MEMO_BYTES = 2 * 2**20
# row blocks that build such a matrix stay within this many entries
_BUILD_BLOCK = 16_384


def _check_walk(radius=None, a=None, b=None, strategy=None):
    """Raise ValueError for a walk parameter out of range; None skips it."""
    if radius is not None and not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if a is not None and not 0 < a < 1:
        raise ValueError(f"a must lie in (0, 1), got {a}")
    if b is not None and not b > 1:
        raise ValueError(f"b must exceed 1, got {b}")
    if strategy is not None and strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")


@dataclass(frozen=True)
class RegionParams:
    """One selection region: the group to draw candidates from and its radius."""

    group: str
    radius: float

    def __post_init__(self):
        _check_walk(radius=self.radius)


@dataclass(frozen=True)
class SelectionParams:
    """Parameters for a multi-region selection.

    a scales the annulus thickness (a * R), b the outer radius of the
    ring candidates are picked from (b * R); seed feeds the random
    strategy; seed_points optionally maps a region's group to the node
    id its walk picks first.
    """

    regions: tuple
    a: float = 0.8
    b: float = 1.3
    strategy: str = "random"
    seed: int = 0
    seed_points: dict = field(default_factory=dict)

    def __post_init__(self):
        regions = tuple(r if isinstance(r, RegionParams) else RegionParams(*r)
                        for r in self.regions)
        object.__setattr__(self, "regions", regions)
        groups = [r.group for r in regions]
        if len(set(groups)) != len(regions):
            raise ValueError("regions must name distinct groups")
        _check_walk(a=self.a, b=self.b, strategy=self.strategy)
        unknown = sorted(set(self.seed_points) - set(groups))
        if unknown:
            raise ValueError(f"seed_points {unknown} name no region of {groups}")
        for group, node in self.seed_points.items():
            if np.ndim(node):
                raise ValueError(f"seed point {node!r} of {group!r} is not one id")
        object.__setattr__(self, "seed_points", {
            group: _int_ids(node, f"seed point of {group!r}").item()
            for group, node in self.seed_points.items()})


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection run.

    Attributes:
        selected: sorted unique node ids.
        order: ids in the order they were picked.
        trace: one (node id, candidate-pool size at pick time) pair per
            pick, for debugging.
        annulus_count: number of annuli built (single-region runs).
        per_region: group name -> single-region SelectionResult, for
            multi-region runs.
    """

    selected: np.ndarray
    order: tuple
    trace: tuple
    annulus_count: int | None = None
    per_region: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "selected", _node_ids(self.selected, "selected ids"))
        object.__setattr__(self, "order", tuple(int(i) for i in self.order))
        object.__setattr__(self, "trace",
                           tuple((int(i), int(s)) for i, s in self.trace))

    @classmethod
    def _built(cls, selected, order, trace, annulus_count=None,
               per_region=None):
        """Result over a fresh sorted unique int64 ``selected`` and the
        lists ``order`` (ints) and ``trace`` ((int, int) pairs) a walk has
        just built; nothing is converted again."""
        selected.setflags(write=False)
        built = object.__new__(cls)
        for name, value in (("selected", selected), ("order", tuple(order)),
                            ("trace", tuple(trace)),
                            ("annulus_count", annulus_count),
                            ("per_region", per_region)):
            object.__setattr__(built, name, value)
        return built

    @property
    def cardinality(self):
        return int(self.selected.size)


def _distances(coords, point):
    """Euclidean distances of the rows of ``coords`` to ``point``; the
    arithmetic of ``np.linalg.norm(coords - point, axis=1)`` without its
    dispatch."""
    diff = coords - point
    np.multiply(diff, diff, out=diff)
    dist = np.add.reduce(diff, axis=1)
    return np.sqrt(dist, out=dist)


def _pairwise(coords):
    """The n x n distances between the rows of ``coords``, row i bitwise
    ``_distances(coords, coords[i])``: the squares are summed one
    coordinate at a time, in the order ``add.reduce`` sums them. Built in
    row blocks, so the only n x n array is the result."""
    n = coords.shape[0]
    cols = np.ascontiguousarray(coords.T)
    dist = np.empty((n, n))
    step = max(1, _BUILD_BLOCK // n)
    scratch = np.empty((step, n))
    for lo in range(0, n, step):
        block = dist[lo:lo + step]
        _kernels._squared_distances(coords[lo:lo + step], cols, block,
                                    scratch[:block.shape[0]])
        np.sqrt(block, out=block)
    return dist


def _memoized(mesh, candidates):
    """(coords, distances) of the sorted ``candidates``, memoized on the
    mesh, or None when n * n exceeds ``_MEMO_BUDGET`` or the entry would
    take the memo past ``_MEMO_BYTES``; nodes are read-only, so entries
    never go stale and none is dropped."""
    n = candidates.size
    if n * n > _MEMO_BUDGET:
        return None
    memo = mesh._memo
    key = candidates.tobytes()
    entry = memo.get(key)
    if entry is None:
        held = sum(arr.nbytes for kept in memo.values() for arr in kept)
        if held + 8 * n * (n + mesh.nodes.shape[1]) > _MEMO_BYTES:
            return None
        coords = mesh.nodes[candidates]
        entry = (coords, _pairwise(coords))
        for arr in entry:
            arr.setflags(write=False)
        memo[key] = entry
    return entry


def _pick_first(coords, strategy, rng, candidate_ids, seed_point):
    if seed_point is not None:
        where = np.nonzero(candidate_ids == seed_point)[0]
        if where.size == 0:
            raise ValueError(f"seed point {seed_point} is not a candidate")
        return int(where[0])
    if strategy == "random":
        return int(rng.integers(0, len(coords)))
    dist = _distances(coords, coords.mean(axis=0))
    if strategy == "centroid_nearest":
        return int(dist.argmin())
    return int(dist.argmax())  # farthest_point: start far out


def _pick_from(beta_positions, coords, strategy, rng, min_dist_to_selected):
    # beta_positions is sorted, so argmin/argmax tie-break to lowest index
    if beta_positions.size == 1:
        # every strategy takes it, and rng.integers(1) draws nothing
        return int(beta_positions[0])
    if strategy == "random":
        # the draw of rng.choice(beta_positions), without its overhead
        return int(beta_positions[rng.integers(beta_positions.size)])
    pts = coords[beta_positions]
    if strategy == "centroid_nearest":
        local = _distances(pts, pts.mean(axis=0))
        return int(beta_positions[local.argmin()])
    return int(beta_positions[min_dist_to_selected[beta_positions].argmax()])


def select(mesh, candidates, radius, a=0.8, b=1.3, strategy="random",
           seed=0, seed_point=None):
    """Single-region selection over ``candidates`` (node ids) of ``mesh``.

    The first point comes from ``seed_point`` when given, otherwise from
    the strategy (seeded RNG for "random"). Annuli of thickness a*R are
    laid out from radius R up to the farthest candidate; each subsequent
    pick is drawn from the current annulus restricted to distances
    (R, b*R] from the previous pick, every pick removes the closed ball
    of radius R around itself, and an exhausted ring hands over to the
    next one.
    """
    candidates = np.sort(_node_ids(candidates, "candidate ids", mesh.node_count))
    if candidates.size == 0:
        raise ValueError("candidate set is empty")
    _check_walk(radius, a, b, strategy)

    nc = candidates.size
    outer = b * radius
    # rows(i): distances of every candidate to candidate i, the closed-ball
    # knockout (> R) and the reach of the next pick (<= b*R)
    memo = _memoized(mesh, candidates)
    if memo is None:
        coords = mesh.nodes[candidates]

        def rows(i):
            d = _distances(coords, coords[i])
            return d, d > radius, d <= outer
    else:
        coords, dist = memo
        far, near = dist > radius, dist <= outer

        def rows(i):
            return dist[i], far[i], near[i]
    # only the random strategy draws
    rng = np.random.default_rng(seed) if strategy == "random" else None

    first = _pick_first(coords, strategy, rng, candidates, seed_point)
    order = [int(candidates[first])]
    trace = [(order[0], nc)]

    d_first, far_first, near_last = rows(first)
    r_omega = float(d_first.max())

    # annuli (R + (j-1)aR, R + j*aR], j = 1..n; the last ring may reach
    # past r_omega so every candidate lands in one
    n_annuli = 0
    while radius + n_annuli * (a * radius) <= r_omega:
        n_annuli += 1

    if n_annuli == 0:
        return SelectionResult._built(np.array(order, dtype=np.int64),
                                      order, trace, annulus_count=0)

    ring = np.ceil(np.maximum(d_first - radius, 0.0) / (a * radius)).astype(np.int64)
    np.minimum(ring, n_annuli, out=ring)  # clip float spill at the rim

    alive = far_first.copy()  # closed influence ball of the first pick
    alive[first] = False
    # running min distance to the selected set, read by farthest_point only
    min_dist = d_first.copy() if strategy == "farthest_point" else None

    # alive always lies outside the ball of the last pick, so a candidate
    # of the ring m is alive, in the ring (live) and within b*R of that pick
    m = 1
    live = alive & (ring == m)
    beta = live & near_last
    while True:
        beta_positions = beta.nonzero()[0]
        if not beta_positions.size:
            # ring m may still hold points unreachable from the last pick
            beta_positions = live.nonzero()[0]
        if not beta_positions.size:
            # rings up to m are exhausted and ring 0 lies in the first
            # ball, so the next ring to walk is the lowest one still alive
            later = ring[alive]
            if not later.size:
                break
            m = int(later.min())
            live = alive & (ring == m)
            beta = live & near_last
            continue
        pick = _pick_from(beta_positions, coords, strategy, rng, min_dist)
        order.append(int(candidates[pick]))
        trace.append((order[-1], beta_positions.size))
        d_last, far_last, near_last = rows(pick)
        alive &= far_last  # closed ball knockout, removes the pick too
        live &= far_last
        beta = live & near_last
        if min_dist is not None:
            np.minimum(min_dist, d_last, out=min_dist)

    sel = np.array(sorted(order), dtype=np.int64)
    return SelectionResult._built(sel, order, trace, annulus_count=n_annuli)


def select_multi(mesh, params):
    """One selection per region, unioned.

    Regions must be pairwise disjoint node groups; each region r gets the
    seed ``params.seed + r`` so runs stay deterministic yet independent.
    """
    if not params.regions:
        raise ValueError("no regions given")
    seen = {}
    taken = np.zeros(mesh.node_count, dtype=bool)  # nodes of earlier regions
    for region in params.regions:
        ids = mesh.group(region.group)
        if ids.size == 0:
            raise ValueError(f"region group {region.group!r} is empty")
        if taken[ids].any():
            other = next(name for name, other_ids in seen.items()
                         if np.intersect1d(ids, other_ids).size)
            raise ValueError(
                f"region groups {other!r} and {region.group!r} overlap")
        taken[ids] = True
        seen[region.group] = ids

    per_region = {}
    order = []
    trace = []
    for r, region in enumerate(params.regions):
        result = select(mesh, seen[region.group], region.radius,
                        a=params.a, b=params.b, strategy=params.strategy,
                        seed=params.seed + r,
                        seed_point=params.seed_points.get(region.group))
        per_region[region.group] = result
        order.extend(result.order)
        trace.extend(result.trace)
    # the regions are disjoint, so sorting is the union
    selected = np.sort(np.concatenate([res.selected for res in per_region.values()]))
    return SelectionResult._built(selected, order, trace, per_region=per_region)


def enrich(selected, mesh, group_names):
    """Union ``selected`` with every node of the named groups, sorted."""
    parts = [_node_ids(selected, "selected ids", mesh.node_count)]
    for name in group_names:
        parts.append(mesh.group(name))
    return sorted_unique(np.concatenate(parts))


def select_random(candidates, k, seed):
    """Uniform sample of k distinct candidates, sorted."""
    candidates = _node_ids(candidates, "candidate ids")
    if not 1 <= k <= candidates.size:
        raise ValueError(f"k must lie in [1, {candidates.size}], got {k}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(candidates, size=int(k), replace=False))


@dataclass(frozen=True)
class BaselineStats:
    """Spread of random-draw errors around their mean.

    delta_min / delta_max are the standardized deviations of the best and
    worst draw: (extreme - mean) / std.
    """

    mean: float
    std: float
    delta_min: float
    delta_max: float


def random_baseline_stats(errors):
    """Mean, sample standard deviation, and standardized extremes."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 1 or errors.size < 2:
        raise ValueError("need at least two error samples")
    lo, hi = float(errors.min()), float(errors.max())
    if lo == hi:
        raise DegenerateSampleError("all draws have identical error")
    # a rounded mean can leave [lo, hi]; clipped, delta_min <= 0 <= delta_max
    mean = min(max(float(errors.mean()), lo), hi)
    # the deltas are scale-free, so take them on deviations divided by the
    # range: their squares cannot underflow to a zero spread
    dev = (errors - mean) / (hi - lo)
    spread = float(dev.std(ddof=1))
    return BaselineStats(mean, spread * (hi - lo),
                         float(dev.min()) / spread, float(dev.max()) / spread)


# ---------------------------------------------------------------------------
# JSON persistence

def write_selection(result, params, path):
    """Write a selection result plus the parameters that produced it."""
    doc = {
        "selected": result.selected.tolist(),
        "params": {
            "regions": [{"group": r.group, "radius": r.radius}
                        for r in params.regions],
            "a": params.a,
            "b": params.b,
            "strategy": params.strategy,
            "seed": params.seed,
            "seed_points": params.seed_points,
        },
        "trace": [list(entry) for entry in result.trace],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_selection(path):
    """Selected ids and parameter echo from :func:`write_selection` output."""
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("selected", "params", "trace"):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    return _node_ids(doc["selected"], "selected ids"), doc["params"]
