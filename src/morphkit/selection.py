"""Geometric thinning of control-point sets.

:func:`select` walks concentric annuli around a first point, repeatedly
picking a candidate from the ring just outside the influence ball of the
last pick and knocking out everything an influence ball covers. The
result is a subset where selected points are pairwise at least R apart
(separation) while every candidate stays within R of some selected point
(covering). Shrinking R below the minimum candidate spacing therefore
returns the whole candidate set, at no extra cost: the number of annuli
is found by one bisection, and an exhausted ring hands over straight to
the lowest ring still holding a candidate. A radius so small that the
count reaches 2**53 raises ValueError naming the radius.

A walk compares only the distance rows of the points it picks against R
and b*R; no n x n mask is built for a radius. Past a generator for the
random strategy and a few NumPy calls on the first pick's row, it costs
about six NumPy calls on candidate-length arrays per pick and per ring
hand-over.

:func:`select_multi` runs one selection per named boundary region with a
per-region radius; :func:`enrich` unions in whole feature groups (edge
curves and the like) afterwards. :func:`select_random` and
:func:`random_baseline_stats` support comparing against same-cardinality
random subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSampleError
from .mesh import (_distances, _group_names, _int_ids, _node_ids, _read_json,
                   _scalar, _trusted, _write_artifact, sorted_unique)

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
# the mesh when n * n fits this many entries (512 KiB of float64): the
# wing's faces and the tunnel's obstacle do, the tunnel's outer faces do
# not. A walk then reads one row per pick as a view, where a set past the
# budget computes it (3 * dim NumPy calls); both come from one
# _distances, compare that row alone against R and b*R, and no other
# n x n array is built, for any radius
_MEMO_BUDGET = 256 * 256
# bytes one mesh's memo may hold: three 3-D sets of 256 points with their
# coordinates (530,432 B each); a fourth would take it to 2,121,728 B
_MEMO_BYTES = 2 * 2**20


# each walk number's range: its test and the words of its error
_WALK_RANGES = {"radius": (lambda v: v > 0, "be positive"),
                "a": (lambda v: 0 < v < 1, "lie in (0, 1)"),
                "b": (lambda v: v > 1, "exceed 1")}


def _walk_number(name, value):
    """``value`` of the walk parameter ``name`` (radius, a or b) as a float
    through ``mesh._scalar``; ValueError names it when it is not a finite
    number or lies outside its range."""
    value = _scalar(value, name)
    test, rule = _WALK_RANGES[name]
    if not test(value):
        raise ValueError(f"{name} must {rule}, got {value}")
    return value


def _check_strategy(strategy):
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")


@dataclass(frozen=True)
class RegionParams:
    """One selection region: the group to draw candidates from and its radius."""

    group: str
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", _walk_number("radius", self.radius))


@dataclass(frozen=True)
class SelectionParams:
    """Parameters for a multi-region selection.

    a scales the annulus thickness (a * R), b the outer radius of the
    ring candidates are picked from (b * R); seed feeds the random
    strategy; seed_points optionally maps a region's group to the node
    id its walk picks first. a, b and seed go through ``mesh._scalar``,
    seed as an integer >= 0, so None, a string, a negative or a
    fractional seed raises ValueError.
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
        for name in ("a", "b"):
            object.__setattr__(self, name, _walk_number(name, getattr(self, name)))
        _check_strategy(self.strategy)
        object.__setattr__(self, "seed", _scalar(self.seed, "seed", True, 0))
        unknown = sorted(set(self.seed_points) - set(groups))
        if unknown:
            raise ValueError(f"seed_points {unknown} name no region of {groups}")
        for group, node in self.seed_points.items():
            if isinstance(node, (list, tuple)) or np.ndim(node):
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
        """Result, by ``mesh._trusted``, over a fresh sorted unique int64
        ``selected`` and the lists ``order`` (ints) and ``trace`` ((int,
        int) pairs) a walk has just built; nothing is converted again."""
        selected.setflags(write=False)
        return _trusted(cls, selected=selected, order=tuple(order),
                        trace=tuple(trace), annulus_count=annulus_count,
                        per_region=per_region)

    @property
    def cardinality(self):
        return int(self.selected.size)


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
        entry = (coords, _distances(coords, coords[:, None]))
        for arr in entry:
            arr.setflags(write=False)
        memo[key] = entry
    return entry


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


def _annulus_count(radius, step, r_omega):
    """The least n >= 0 with ``radius + n * step > r_omega``: the number of
    annuli (R + (j-1)aR, R + j*aR], j = 1..n, with ``step`` = aR, that
    reach the farthest candidate at ``r_omega``. It is the count of the
    loop ``while radius + n * step <= r_omega: n += 1``, found by one
    bisection of the loop's test, which is monotone in n, over the
    estimate (r_omega - R) / aR +- 2 when that holds the count (four
    tests), else over [0, 2**53) (55 tests): aR finer than the float
    spacing at r_omega rounds R + n*aR to one float for many n. ValueError
    names the radius when the count reaches 2**53, past which ring indices
    (floats) are not exact; aR underflowing to 0 is one case."""
    if not radius <= r_omega:
        return 0

    def past(n):
        return radius + n * step > r_omega
    # the count lies in (lo, hi]: lo passes the loop's test, as 0 does
    lo, hi = 0, 2**53
    estimate = (r_omega - radius) / step if step else math.inf
    if estimate < 2**53:
        guess = int(estimate)
        if not past(max(guess - 2, 0)) and past(guess + 2):
            lo, hi = max(guess - 2, 0), guess + 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if past(mid):
            hi = mid
        else:
            lo = mid
    if hi >= 2**53:
        raise ValueError(f"radius {radius!r} is too small: annuli of "
                         f"thickness {step!r} up to {r_omega!r} number "
                         "2**53 or more")
    return hi


def select(mesh, candidates, radius, a=0.8, b=1.3, strategy="random",
           seed=0, seed_point=None):
    """Single-region selection over ``candidates`` (node ids) of ``mesh``.

    The first point comes from ``seed_point`` when given, otherwise from
    the strategy (seeded RNG for "random"). Annuli of thickness a*R are
    laid out from radius R up to the farthest candidate; their number is
    found by one bisection, and a radius so small that the count reaches
    2**53 (a*R underflowing to 0, say) raises ValueError naming the
    radius. Each subsequent pick is drawn from the
    current annulus restricted to distances (R, b*R] from the previous
    pick, every pick removes the closed ball of radius R around itself,
    and an exhausted ring hands over to the lowest ring still holding a
    candidate, without visiting the empty rings between. ``seed`` must be
    an integer >= 0 for every strategy.

    The arguments are checked here. The walk then compares only the
    distance rows of its picks against R and b*R, so it builds no n x n
    mask for the radius: it costs a generator for the random strategy, a
    few NumPy calls on the first pick's row, and about six calls on
    candidate-length arrays per pick and per ring hand-over.
    """
    seed = _scalar(seed, "seed", True, 0)
    candidates = np.sort(_node_ids(candidates, "candidate ids", mesh.node_count))
    if candidates.size == 0:
        raise ValueError("candidate set is empty")
    radius, a, b = (_walk_number(name, value) for name, value in
                    (("radius", radius), ("a", a), ("b", b)))
    _check_strategy(strategy)
    return _walk(mesh, candidates, radius, a, b, strategy, seed, seed_point)


def _walk(mesh, candidates, radius, a, b, strategy, seed, seed_point):
    """:func:`select` over sorted unique in-range ``candidates`` with
    checked walk numbers, strategy and seed."""
    # row(i): distances of every candidate to candidate i, a view of the
    # memoized matrix or one computed row; the knockout (> R) and the
    # reach (<= b*R) are compared on the rows the walk picks only
    memo = _memoized(mesh, candidates)
    if memo is None:
        coords = mesh.nodes[candidates]

        def row(i):
            return _distances(coords, coords[i])
    else:
        coords, dist = memo
        row = dist.__getitem__
    # only the random strategy draws
    rng = np.random.default_rng(seed) if strategy == "random" else None

    if seed_point is not None:
        where = np.flatnonzero(candidates == seed_point)
        if not where.size:
            raise ValueError(f"seed point {seed_point} is not a candidate")
        first = int(where[0])
    else:
        # every candidate is in the first pool; farthest_point starts far out
        spread = (_distances(coords, coords.mean(axis=0))
                  if strategy == "farthest_point" else None)
        first = _pick_from(np.arange(candidates.size), coords, strategy, rng,
                           spread)
    order = [int(candidates[first])]
    trace = [(order[0], candidates.size)]
    d_last = row(first)
    step = a * radius
    n_annuli = _annulus_count(radius, step, float(d_last.max()))
    if n_annuli:
        # the bounds as 0-d arrays: a comparison then converts no Python
        # float, ~0.15 us of each ~0.5 us call
        inner, outer = np.array(radius), np.array(b * radius)
        # ring j holds the candidates at (R + (j-1)aR, R + j*aR] from the
        # first pick; only those outside its closed ball (ring >= 1) are
        # ever read
        ring = np.ceil((d_last - radius) / step)
        np.minimum(ring, n_annuli, out=ring)  # clip float spill at the rim
        alive = d_last > inner  # closed influence ball of the first pick
        # running min distance to the selected set, read by farthest_point only
        min_dist = d_last.copy() if strategy == "farthest_point" else None

        # alive always lies outside the ball of the last pick, so a
        # candidate of the ring m is alive, in the ring (live) and within
        # b*R of that pick
        m = 1
        live = alive & (ring == m)
        near = d_last <= outer
        while True:
            pool = (live & near).nonzero()[0]
            if not pool.size:
                # ring m may still hold points unreachable from the last pick
                pool = live.nonzero()[0]
            if not pool.size:
                # rings up to m are exhausted and ring 0 lies in the first
                # ball, so the next ring to walk is the lowest one still
                # alive, found by one reduction
                later = ring[alive]
                if not later.size:
                    break
                m = later.min()
                live = alive & (ring == m)
                continue
            pick = _pick_from(pool, coords, strategy, rng, min_dist)
            order.append(int(candidates[pick]))
            trace.append((order[-1], pool.size))
            d_last = row(pick)
            far = d_last > inner  # closed ball knockout, removes the pick too
            alive &= far
            live &= far
            near = d_last <= outer
            if min_dist is not None:
                np.minimum(min_dist, d_last, out=min_dist)

    # order and trace grow pick by pick: built in one go from the pick
    # positions at the end they ran no faster, and a long R sweep then
    # kept ~175 B more of fragmented heap per point
    sel = np.array(sorted(order), dtype=np.int64)
    return SelectionResult._built(sel, order, trace, annulus_count=n_annuli)


def _check_regions(names, groups):
    """Refuse an empty region group or a node id shared by two groups; a
    :class:`Mesh` keeps each group in range and free of repeats, so one
    count of the regions' ids finds a shared one."""
    for name, ids in zip(names, groups):
        if ids.size == 0:
            raise ValueError(f"region group {name!r} is empty")
    if np.bincount(np.concatenate(groups)).max() == 1:
        return
    for j, ids in enumerate(groups):
        for name, other in zip(names, groups[:j]):
            if np.intersect1d(ids, other).size:
                raise ValueError(
                    f"region groups {name!r} and {names[j]!r} overlap")


def select_multi(mesh, params):
    """One selection per region, unioned.

    Regions must be pairwise disjoint node groups; each region r gets the
    seed ``params.seed + r`` so runs stay deterministic yet independent.
    The groups are checked once here, and every region walks with the
    numbers ``params`` has already checked.
    """
    if not params.regions:
        raise ValueError("no regions given")
    names = [region.group for region in params.regions]
    groups = [mesh.group(name) for name in names]
    _check_regions(names, groups)

    per_region = {}
    order = []
    trace = []
    for r, (region, ids) in enumerate(zip(params.regions, groups)):
        result = _walk(mesh, ids, region.radius, params.a, params.b,
                       params.strategy, params.seed + r,
                       params.seed_points.get(region.group))
        per_region[region.group] = result
        order.extend(result.order)
        trace.extend(result.trace)
    # the regions are disjoint, so sorting is the union
    selected = np.sort(np.concatenate([res.selected for res in per_region.values()]))
    return SelectionResult._built(selected, order, trace, per_region=per_region)


def enrich(selected, mesh, group_names):
    """Union ``selected`` with every node of the named groups, sorted, as a
    read-only int64 array that owns its data."""
    parts = [_node_ids(selected, "selected ids", mesh.node_count)]
    for name in _group_names(group_names, "group_names"):
        parts.append(mesh.group(name))
    ids = sorted_unique(np.concatenate(parts))
    ids.setflags(write=False)
    return ids


def select_random(candidates, k, seed):
    """Uniform sample of k distinct candidates, sorted, as a read-only int64
    array that owns its data; k and seed go through ``mesh._scalar`` as
    integers, k >= 1 and seed >= 0."""
    candidates = _node_ids(candidates, "candidate ids")
    k = _scalar(k, "k", True, 1)
    if k > candidates.size:
        raise ValueError(f"k must lie in [1, {candidates.size}], got {k}")
    rng = np.random.default_rng(_scalar(seed, "seed", True, 0))
    ids = np.sort(rng.choice(candidates, size=k, replace=False))
    ids.setflags(write=False)
    return ids


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
    """Mean, sample standard deviation, and standardized extremes of at
    least two finite errors."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 1 or errors.size < 2:
        raise ValueError("need at least two error samples")
    if not np.isfinite(errors).all():
        raise ValueError("error samples must be finite")
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
    _write_artifact(doc, path)


def read_selection(path):
    """Selected ids and parameter echo from :func:`write_selection` output."""
    doc = _read_json(path, ("selected", "params", "trace"))
    try:
        return _node_ids(doc["selected"], "selected ids"), doc["params"]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
