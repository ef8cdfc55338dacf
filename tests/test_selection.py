"""Annulus-walk thinning: invariants, determinism, and the random baseline."""

import contextlib
import hashlib
import json
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

import morphkit as mk
from morphkit import (BaselineStats, DegenerateSampleError, RegionParams,
                      SelectionParams, enrich, random_baseline_stats,
                      read_selection, select, select_multi, select_random,
                      write_selection)
from morphkit import selection
from morphkit.selection import STRATEGIES
from conftest import make_lattice2d


def separation_and_covering(mesh, candidates, selected, radius):
    """Brute-force check of the two defining properties."""
    pts = mesh.nodes[selected]
    if len(pts) > 1:
        d = cdist(pts, pts)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= radius - 1e-12, "two selected points too close"
    cover = cdist(mesh.nodes[candidates], pts).min(axis=1)
    assert cover.max() <= radius + 1e-12, "a candidate is uncovered"


@pytest.fixture
def row_path(monkeypatch):
    # a budget of 0 sends every candidate set down the path that computes
    # one row of distances per pick
    monkeypatch.setattr(selection, "_MEMO_BUDGET", 0)


def walk(mesh, regions, seed, strategy="random"):
    res = select_multi(mesh, SelectionParams(regions, seed=seed,
                                             strategy=strategy))
    return res.order, res.trace, {k: v.annulus_count
                                  for k, v in res.per_region.items()}


# ---------------------------------------------------------------------------
# frozen lattice oracle

def test_lattice_walk_frozen(lattice11):
    # unit-spacing 11x11 grid, first pick pinned at node (4, 5):
    # farthest candidate is corner (10, 0) at sqrt(61) ~ 7.81, and
    # 2.1 + j*1.68 <= 7.81 holds for j = 0..3, hence exactly 4 annuli
    res = select(lattice11, lattice11.boundary_ids, 2.1, a=0.8, b=1.4,
                 seed_point=49)
    assert res.order[0] == 49
    assert res.annulus_count == 4
    assert res.cardinality == 22
    separation_and_covering(lattice11, lattice11.boundary_ids,
                            res.selected, 2.1)
    # closest selected pair sits at a knight-ish (1, 2) offset
    pts = lattice11.nodes[res.selected]
    d = cdist(pts, pts)
    np.fill_diagonal(d, np.inf)
    assert d.min() == pytest.approx(np.sqrt(5.0))


# Pick orders, pool sizes and annulus counts recorded with the earlier
# implementation (rng.choice for the random pick, np.linalg.norm for the
# distances); the walk must repeat them exactly.
LATTICE_WALKS = {
    ("random", 0): (6, [102, 93, 116, 70, 79, 88, 111, 49, 45, 73, 96, 109,
                        24, 52, 65, 17, 11, 32, 4, 8],
                    [121, 6, 2, 12, 1, 1, 1, 12, 9, 5, 1, 2, 5, 1, 2, 6, 1,
                     6, 3, 1]),
    ("random", 5): (5, [81, 102, 89, 68, 47, 60, 73, 94, 115, 107, 86, 39,
                        52, 44, 24, 110, 120, 3, 16, 31, 65, 7, 11, 10],
                    [121, 8, 2, 1, 1, 1, 1, 1, 1, 17, 1, 11, 2, 6, 3, 1, 9,
                     8, 1, 2, 1, 4, 2, 1]),
    ("centroid_nearest", 0): (3, [60, 37, 28, 41, 81, 68, 84, 97, 76, 45, 24,
                                  3, 104, 113, 89, 7, 117, 20, 11, 110, 120],
                              [121, 8, 2, 2, 17, 2, 6, 4, 1, 24, 1, 1, 12, 2,
                               4, 2, 1, 8, 4, 2, 1]),
    ("farthest_point", 0): (8, [0, 13, 34, 47, 26, 5, 55, 68, 18, 39, 60, 81,
                                88, 101, 43, 52, 73, 94, 10, 76, 97, 114, 117,
                                120],
                            [121, 2, 1, 3, 1, 1, 1, 2, 3, 1, 1, 1, 2, 2, 16,
                             2, 1, 1, 2, 6, 1, 2, 2, 1]),
}


def check_lattice_walk(lattice11, strategy, seed, memoized):
    annuli, order, pools = LATTICE_WALKS[strategy, seed]
    mesh = lattice11.with_nodes(lattice11.nodes)   # with an empty memo
    res = select(mesh, mesh.boundary_ids, 2.1, strategy=strategy, seed=seed)
    memo = mesh._memo.get(mesh.boundary_ids.tobytes())
    assert (memo is not None) == memoized
    assert res.annulus_count == annuli
    assert list(res.order) == order
    assert res.trace == tuple(zip(order, pools))
    np.testing.assert_array_equal(res.selected, sorted(order))


@pytest.mark.parametrize("strategy,seed", sorted(LATTICE_WALKS))
def test_lattice_walk_golden(lattice11, strategy, seed):
    check_lattice_walk(lattice11, strategy, seed, memoized=True)


@pytest.mark.parametrize("strategy,seed", sorted(LATTICE_WALKS))
def test_lattice_walk_golden_row_path(lattice11, strategy, seed, row_path):
    check_lattice_walk(lattice11, strategy, seed, memoized=False)


# SHA-256 of json.dumps([order, trace, {region: annulus_count}]) for the
# thinning study's regions on box_wing(8, 4, 25)
WING_WALKS = {
    (0.03, 1): (217, "9f7def060a45a8595ed320467926c959"
                     "eeb4ff8e6b1991a406916e491deaac7b"),
    (0.07, 2): (87, "167e0203874264e7d2409ba0a5a3105f"
                    "9a7d053927bdb4683760753255239cce"),
    (0.12, 3): (67, "3dc1b8c0b7a3b159fc2e00beed00f763"
                    "bd46bac98079208ed85063521bc71564"),
}


@pytest.fixture(scope="module")
def study_wing():
    return mk.generate_box_wing(8, 4, 25, (1.0, 0.25, 6.3))


def wing_regions(r_lr):
    return ([("left", r_lr), ("right", r_lr)]
            + [(g, 10 * r_lr) for g in ("top", "bottom", "front", "rear")])


def check_wing_walk(study_wing, r_lr, seed):
    order, trace, annuli = walk(study_wing, wing_regions(r_lr), seed)
    doc = json.dumps([list(order), [list(t) for t in trace], annuli])
    count, digest = WING_WALKS[r_lr, seed]
    assert len(order) == count
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


@pytest.mark.parametrize("r_lr,seed", sorted(WING_WALKS))
def test_multi_region_walk_golden(study_wing, r_lr, seed):
    check_wing_walk(study_wing, r_lr, seed)


@pytest.mark.parametrize("r_lr,seed", sorted(WING_WALKS))
def test_multi_region_walk_golden_row_path(study_wing, r_lr, seed, row_path):
    check_wing_walk(study_wing, r_lr, seed)


# ---------------------------------------------------------------------------
# the per-mesh memo of candidate distances

@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 50, 256])
def test_memo_rows_are_bitwise_distance_rows(dim, n):
    # the memo and a computed row are one function: a walk reads the same
    # bits on either path
    rng = np.random.default_rng(dim * n)
    coords = rng.standard_normal((n, dim)) * rng.uniform(0.1, 1e3, dim)
    dist = selection._distances(coords, coords[:, None])
    assert dist.shape == (n, n)
    for i in range(n):
        np.testing.assert_array_equal(dist[i],
                                      selection._distances(coords, coords[i]))
        np.testing.assert_array_equal(dist[i],
                                      reference_distances(coords, coords[i]))


def memo_bytes(mesh):
    return sum(arr.nbytes for entry in mesh._memo.values() for arr in entry)


def test_memo_keeps_small_sets_only():
    mesh = mk.generate_tunnel((5.0, 5.0, 5.0), (1.0, 1.0, 1.0), 16)
    face, obstacle = mesh.group("left"), mesh.group("obstacle")
    assert face.size ** 2 > selection._MEMO_BUDGET >= obstacle.size ** 2
    for ids in (face, obstacle):
        select(mesh, ids, 0.8, seed=2)
    assert mesh._memo.get(face.tobytes()) is None
    coords, dist = mesh._memo.get(obstacle.tobytes())
    assert not coords.flags.writeable and not dist.flags.writeable
    assert memo_bytes(mesh) == coords.nbytes + dist.nbytes


def test_memo_stays_under_its_cap(lattice11, monkeypatch):
    mesh = lattice11.with_nodes(lattice11.nodes)
    subsets = [lattice11.boundary_ids[j:] for j in range(30)]
    walks = [select(mesh, ids, 2.1, seed=j) for j, ids in enumerate(subsets)]
    assert selection._MEMO_BYTES - 8 * 121 * 123 < memo_bytes(mesh)
    assert memo_bytes(mesh) <= selection._MEMO_BYTES
    assert mesh._memo.get(subsets[-1].tobytes()) is None   # it did not fit
    monkeypatch.setattr(selection, "_MEMO_BUDGET", 0)
    for j, (ids, res) in enumerate(zip(subsets, walks)):
        again = select(mesh, ids, 2.1, seed=j)
        assert (again.order, again.trace) == (res.order, res.trace)


@pytest.mark.parametrize("radius", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_paths_agree_on_ties(lattice11, radius, strategy, monkeypatch):
    # unit-lattice distances hit R and b*R exactly: the ball is closed,
    # the reach (R, b*R] open below and closed above, on either path
    mesh, ids = lattice11.with_nodes(lattice11.nodes), lattice11.boundary_ids
    memo = select(mesh, ids, radius, b=1.5, strategy=strategy, seed=1)
    assert mesh._memo.get(ids.tobytes()) is not None
    monkeypatch.setattr(selection, "_MEMO_BUDGET", 0)
    rows = select(mesh, ids, radius, b=1.5, strategy=strategy, seed=1)
    assert (memo.order, memo.trace) == (rows.order, rows.trace)


def test_memo_repeats_fresh_mesh_walks(study_wing):
    mesh = study_wing.with_nodes(study_wing.nodes)
    for j, strategy in enumerate(STRATEGIES * 3):
        regions, seed = wing_regions(0.02 + 0.011 * j), 40 + j
        fresh = study_wing.with_nodes(study_wing.nodes)
        assert (walk(mesh, regions, seed, strategy)
                == walk(fresh, regions, seed, strategy))


def test_moved_mesh_gets_its_own_distances(lattice11, monkeypatch):
    ids = lattice11.boundary_ids
    before = select(lattice11, ids, 2.1, seed=4)
    rng = np.random.default_rng(4)
    moved = lattice11.with_nodes(
        lattice11.nodes + rng.uniform(-0.4, 0.4, lattice11.nodes.shape))
    res = select(moved, ids, 2.1, seed=4)
    coords, dist = moved._memo.get(ids.tobytes())
    np.testing.assert_array_equal(coords, moved.nodes[ids])
    np.testing.assert_array_equal(dist[7],
                                  selection._distances(coords, coords[7]))
    assert res.order != before.order
    monkeypatch.setattr(selection, "_MEMO_BUDGET", 0)
    again = select(moved, ids, 2.1, seed=4)
    assert (again.order, again.trace) == (res.order, res.trace)


# ---------------------------------------------------------------------------
# a frozen reference walk: the walk as it stood before picks were compared
# on their rows only, with one distance row per pick, the annulus loop and
# a hand-over by reduction; every walk must repeat it

def reference_distances(coords, point):
    diff = coords - point
    np.multiply(diff, diff, out=diff)
    dist = np.add.reduce(diff, axis=1)
    return np.sqrt(dist, out=dist)


def reference_pick_first(coords, strategy, rng, candidate_ids, seed_point):
    if seed_point is not None:
        return int(np.nonzero(candidate_ids == seed_point)[0][0])
    if strategy == "random":
        return int(rng.integers(0, len(coords)))
    dist = reference_distances(coords, coords.mean(axis=0))
    if strategy == "centroid_nearest":
        return int(dist.argmin())
    return int(dist.argmax())


def reference_pick_from(beta_positions, coords, strategy, rng, min_dist):
    if beta_positions.size == 1:
        return int(beta_positions[0])
    if strategy == "random":
        return int(beta_positions[rng.integers(beta_positions.size)])
    pts = coords[beta_positions]
    if strategy == "centroid_nearest":
        local = reference_distances(pts, pts.mean(axis=0))
        return int(beta_positions[local.argmin()])
    return int(beta_positions[min_dist[beta_positions].argmax()])


def reference_select(mesh, candidates, radius, a=0.8, b=1.3,
                     strategy="random", seed=0, seed_point=None):
    """(order, trace, annulus_count) of the reference walk."""
    candidates = np.sort(np.asarray(candidates, dtype=np.int64))
    nc = candidates.size
    outer = b * radius
    coords = mesh.nodes[candidates]

    def rows(i):
        d = reference_distances(coords, coords[i])
        return d, d > radius, d <= outer
    rng = np.random.default_rng(seed) if strategy == "random" else None

    first = reference_pick_first(coords, strategy, rng, candidates,
                                 seed_point)
    order = [int(candidates[first])]
    trace = [(order[0], nc)]
    d_first, far_first, near_last = rows(first)
    r_omega = float(d_first.max())
    n_annuli = 0
    while radius + n_annuli * (a * radius) <= r_omega:
        n_annuli += 1
    if n_annuli == 0:
        return tuple(order), tuple(trace), 0

    ring = np.ceil(np.maximum(d_first - radius, 0.0)
                   / (a * radius)).astype(np.int64)
    np.minimum(ring, n_annuli, out=ring)
    alive = far_first.copy()
    alive[first] = False
    min_dist = d_first.copy() if strategy == "farthest_point" else None
    m = 1
    live = alive & (ring == m)
    beta = live & near_last
    while True:
        beta_positions = beta.nonzero()[0]
        if not beta_positions.size:
            beta_positions = live.nonzero()[0]
        if not beta_positions.size:
            later = ring[alive]
            if not later.size:
                break
            m = int(later.min())
            live = alive & (ring == m)
            beta = live & near_last
            continue
        pick = reference_pick_from(beta_positions, coords, strategy, rng,
                                   min_dist)
        order.append(int(candidates[pick]))
        trace.append((order[-1], beta_positions.size))
        d_last, far_last, near_last = rows(pick)
        alive &= far_last
        live &= far_last
        beta = live & near_last
        if min_dist is not None:
            np.minimum(min_dist, d_last, out=min_dist)
    return tuple(order), tuple(trace), n_annuli


def assert_walks_repeat_the_reference(mesh, split, radius, a, b, strategy,
                                      seed, seed_point, memoized):
    """select over every candidate and select_multi over the two regions
    ids[:split] and ids[split:] against the reference walk, on the memo
    path or the row path; the mesh is rebuilt with those groups, so it
    starts with an empty memo."""
    ids = mesh.boundary_ids
    halves = {"lo": ids[:split], "hi": ids[split:]}
    mesh = mk.Mesh(mesh.dim, mesh.nodes, mesh.elements, ids,
                   mesh.interior_ids, {"all": ids, **halves})
    regions = [RegionParams("lo", radius), RegionParams("hi", 2 * radius)]
    pins = {} if seed_point is None else {"lo": int(ids[seed_point % split])}
    with pytest.MonkeyPatch.context() as patch:
        if not memoized:
            patch.setattr(selection, "_MEMO_BUDGET", 0)
        res = select(mesh, ids, radius, a, b, strategy, seed,
                     None if seed_point is None else int(ids[seed_point]))
        multi = select_multi(mesh, SelectionParams(
            regions, a, b, strategy, seed, pins))
    assert (mesh._memo != {}) == memoized
    expected = reference_select(
        mesh, ids, radius, a, b, strategy, seed,
        None if seed_point is None else int(ids[seed_point]))
    assert (res.order, res.trace, res.annulus_count) == expected
    np.testing.assert_array_equal(res.selected, sorted(expected[0]))
    order, trace = [], []
    for r, region in enumerate(regions):
        want = reference_select(mesh, halves[region.group], region.radius,
                                a, b, strategy, seed + r,
                                pins.get(region.group))
        got = multi.per_region[region.group]
        assert (got.order, got.trace, got.annulus_count) == want
        order += want[0]
        trace += want[1]
    assert (multi.order, multi.trace) == (tuple(order), tuple(trace))
    np.testing.assert_array_equal(multi.selected, sorted(order))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), nx=st.integers(2, 9),
       ny=st.integers(2, 9), radius=st.floats(0.2, 6.0),
       a=st.floats(0.05, 0.95), b=st.floats(1.01, 3.0),
       strategy=st.sampled_from(STRATEGIES),
       seed_point=st.none() | st.integers(0, 10_000),
       memoized=st.booleans())
def test_walks_repeat_the_reference_on_jittered_grids(
        seed, nx, ny, radius, a, b, strategy, seed_point, memoized):
    mesh = make_lattice2d(nx, ny, (float(nx), float(ny)))
    rng = np.random.default_rng(seed)
    mesh = mesh.with_nodes(
        mesh.nodes + rng.uniform(-0.2, 0.2, size=mesh.nodes.shape))
    n = mesh.boundary_ids.size
    assert_walks_repeat_the_reference(
        mesh, 1 + seed % (n - 1), radius, a, b, strategy, seed,
        None if seed_point is None else seed_point % n, memoized)


# unit-lattice radii where distances hit R, b*R and the ring bounds
# R + j*aR exactly (a*R is 1, 0.5 or 0.25; or R = sqrt 2, b*R = sqrt 8)
@pytest.mark.parametrize("radius, a, b", [
    (1.0, 0.5, 2.0), (2.0, 0.5, 1.5), (2.0, 0.25, 2.5), (3.0, 0.5, 2.0),
    (4.0, 0.25, 1.25), (np.sqrt(2.0), 0.5, 2.0)])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("memoized", [True, False])
def test_walks_repeat_the_reference_on_lattice_ties(
        lattice11, radius, a, b, strategy, memoized):
    for seed, seed_point in ((0, None), (3, 60), (8, 0)):
        assert_walks_repeat_the_reference(lattice11, 55, radius, a, b,
                                          strategy, seed, seed_point,
                                          memoized)


# ---------------------------------------------------------------------------
# the annulus count and the ring hand-over

def loop_count(radius, a, r_omega):
    n = 0
    while radius + n * (a * radius) <= r_omega:
        n += 1
    return n


@settings(max_examples=200, deadline=None)
@given(radius=st.floats(1e-3, 1e3), a=st.floats(0.01, 0.99),
       j=st.integers(0, 2_000), nudge=st.integers(-2, 2))
# just below R and on it, a lattice bound, the float spill past the last
# ring (r_omega = 0.84), 99,991 annuli, and bounds the closed form's first
# estimate puts one above and one below the loop's count
@example(radius=0.5, a=0.8, j=0, nudge=-1)
@example(radius=0.5, a=0.8, j=0, nudge=0)
@example(radius=2.0, a=0.5, j=8, nudge=0)
@example(radius=0.3, a=0.6, j=3, nudge=-1)
@example(radius=1.0, a=0.1, j=99_990, nudge=0)
@example(radius=0.05, a=0.8, j=9, nudge=-1)
@example(radius=0.4, a=0.1, j=10, nudge=0)
def test_annulus_count_is_the_loops(radius, a, j, nudge):
    # r_omega on a ring bound R + j*aR exactly, or a few ulps off it
    r_omega = radius + j * (a * radius)
    for _ in range(abs(nudge)):
        r_omega = np.nextafter(r_omega, np.inf if nudge > 0 else 0.0)
    r_omega = float(r_omega)
    assert (selection._annulus_count(radius, a * radius, r_omega)
            == loop_count(radius, a, r_omega))


@settings(max_examples=100, deadline=None)
@given(radius=st.floats(1e-3, 1e3), e=st.integers(53, 60),
       k=st.integers(0, 8))
def test_annulus_count_is_the_loops_below_the_float_spacing(radius, e, k):
    # aR below the spacing of floats at r_omega, k ulps past R: R + n*aR
    # rounds to one float for many n, so the first estimate is far off
    a = 2.0**-e
    r_omega = float(radius)
    for _ in range(k):
        r_omega = float(np.nextafter(r_omega, np.inf))
    assert (selection._annulus_count(radius, a * radius, r_omega)
            == loop_count(radius, a, r_omega))


@pytest.fixture
def deadline():
    """Fail a test whose body runs past ``seconds`` instead of hanging."""
    def alarm(signum, frame):
        raise TimeoutError("the walk did not return in time")

    @contextlib.contextmanager
    def within(seconds):
        old = signal.signal(signal.SIGALRM, alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    return within


@pytest.mark.parametrize("memoized", [True, False])
def test_tiny_radius_selects_every_candidate_promptly(study_wing, deadline,
                                                      memoized):
    # 4.8e12 annuli on the top face: the hand-over must jump to the lowest
    # live ring, never step through the empty ones
    top = study_wing.group("top")
    with pytest.MonkeyPatch.context() as patch, deadline(20.0):
        if not memoized:
            patch.setattr(selection, "_MEMO_BUDGET", 0)
        res = select(study_wing.with_nodes(study_wing.nodes), top, 1e-12)
    np.testing.assert_array_equal(res.selected, top)
    assert res.cardinality == 216
    assert res.annulus_count > 10**12


@pytest.mark.parametrize("radius, a", [(5e-324, 0.1), (1e-300, 0.5)])
def test_radius_too_small_for_its_annuli_raises(lattice11, deadline, radius,
                                                a):
    # a*R underflows to 0 (the loop would never end), or the count
    # (about 2.8e301) is past 2**53
    with pytest.raises(ValueError, match=r"^radius .* is too small"), \
            deadline(20.0):
        select(lattice11, lattice11.boundary_ids, radius, a=a)


def test_annuli_finer_than_floats_count_promptly(deadline):
    # aR = 2**-104 against one ulp (2**-52) from R = 1 to r_omega: the
    # estimate reads 2**52 annuli, while 1 + n * 2**-104 first rounds past
    # r_omega at n = 3 * 2**51 (1.5 ulp, a tie rounded to even), 2**51
    # steps beyond the estimate
    far = 1.0 + 2.0**-52
    with deadline(20.0):
        assert selection._annulus_count(1.0, 2.0**-104, far) == 3 * 2**51
        nodes = np.array([[0.0, 0.0], [far, 0.0]])
        ids = np.arange(2)
        mesh = mk.Mesh(2, nodes, np.empty((0, 3), dtype=np.int64), ids,
                       np.array([], dtype=np.int64), {"all": ids})
        res = select(mesh, ids, 1.0, a=2.0**-104, seed_point=0)
    assert res.annulus_count == 3 * 2**51
    assert res.order == (0, 1)


def test_annulus_count_is_refused_from_2_53():
    # too many annuli to run the loop: each count is checked against the
    # loop's test on either side of it. Unit annuli from R = 1 up to
    # 2**53 - 1 number 2**53 - 1, the largest count returned; from R = 2
    # up to 2**53 they number 2**53, the least refused
    assert 1.0 + (2**53 - 2) * 1.0 <= 2.0**53 - 1 < 1.0 + (2**53 - 1) * 1.0
    assert selection._annulus_count(1.0, 1.0, 2.0**53 - 1) == 2**53 - 1
    assert 2.0 + (2**53 - 1) * 1.0 <= 2.0**53 < 2.0 + 2**53 * 1.0
    with pytest.raises(ValueError, match=r"^radius 2\.0 is too small"):
        selection._annulus_count(2.0, 1.0, 2.0**53)
    # below the float spacing the estimate, 1.6 * 2**52, lies under 2**53
    # while the count, about 1.2 * 2**53, does not
    step, far = 2.0**-52 / (1.6 * 2**52), 1.0 + 2.0**-52
    assert (far - 1.0) / step < 2**53
    assert 1.0 + (2**53 - 1) * step <= far
    with pytest.raises(ValueError, match=r"^radius 1\.0 is too small"):
        selection._annulus_count(1.0, step, far)


def test_rim_candidate_stays_in_the_last_ring():
    # seen from the first pick at the origin, B at 0.84 lies past the last
    # of 3 annuli by float spill (0.84 - 0.3) / 0.18 = 3.0000000000000004;
    # clipped into ring 3 it shares a pool with A at 0.75
    nodes = np.array([[0.0, 0.0], [0.0, 0.75], [0.84, 0.0]])
    ids = np.arange(3)
    mesh = mk.Mesh(2, nodes, np.empty((0, 3), dtype=np.int64), ids,
                   np.array([], dtype=np.int64), {"all": ids})
    for memoized in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not memoized:
                patch.setattr(selection, "_MEMO_BUDGET", 0)
            res = select(mesh.with_nodes(nodes), ids, 0.3, a=0.6,
                         seed_point=0)
        assert res.annulus_count == 3
        assert [pool for _, pool in res.trace] == [3, 2, 1]
        assert res.trace == reference_select(mesh, ids, 0.3, a=0.6,
                                             seed_point=0)[1]


@pytest.mark.parametrize("groups, fault, message", [
    ({"twice": [3, 3, 5]}, "'twice' repeats a node id",
     "^group 'twice' contain duplicates$"),
    ({"past": [5, 121]}, "'past' holds node ids out of range",
     r"^group 'past' out of range \[0, 121\): \[121\]$"),
    ({"below": [-1, 5]}, "'below' holds node ids out of range",
     r"^group 'below' out of range \[0, 121\): \[-1\]$"),
    ({"lo": [3, 4, 5], "hi": [5, 6]}, "'lo' and 'hi' overlap",
     "^region groups 'lo' and 'hi' overlap$"),
])
def test_select_multi_checks_groups_of_meshes_never_validated(
        lattice11, groups, fault, message):
    # ``fault`` names each case's defect. The mesh refuses a group that
    # repeats an id or leaves its nodes as it is built, validate() or not;
    # select_multi refuses groups that overlap
    def build():
        return mk.Mesh(2, lattice11.nodes, lattice11.elements,
                       lattice11.boundary_ids, lattice11.interior_ids, groups)

    params = SelectionParams([(name, 1.5) for name in groups])
    if "overlap" in message:
        mesh = build()
        with pytest.raises(ValueError, match=message):
            select_multi(mesh, params)
    else:
        with pytest.raises(ValueError, match=message):
            build()


def test_one_way_random_pick_draws_nothing():
    # a pool of one is taken without a draw; the random stream stays that
    # of rng.integers(size) only because integers(1) consumes no bits
    rng = np.random.default_rng(5)
    rng.integers(7)
    state = rng.bit_generator.state
    assert rng.integers(1) == 0
    assert rng.bit_generator.state == state


def test_results_hold_python_ints(wing):
    res = select_multi(wing, SelectionParams([("left", 0.1), ("top", 0.3)]))
    for r in (res, *res.per_region.values()):
        assert type(r.order) is tuple and type(r.trace) is tuple
        assert all(type(i) is int for i in r.order)
        assert all(type(i) is int and type(n) is int for i, n in r.trace)
        assert r.selected.dtype == np.int64 and not r.selected.flags.writeable
        np.testing.assert_array_equal(r.selected, sorted(r.order))


def test_radius_below_spacing_selects_everything(lattice11):
    res = select(lattice11, lattice11.boundary_ids, 0.5, seed=3)
    np.testing.assert_array_equal(res.selected, lattice11.boundary_ids)
    assert res.annulus_count == 0 or res.cardinality == 121


def test_selection_repeatable(lattice11):
    a = select(lattice11, lattice11.boundary_ids, 2.1, seed=11)
    b = select(lattice11, lattice11.boundary_ids, 2.1, seed=11)
    np.testing.assert_array_equal(a.selected, b.selected)
    assert a.order == b.order


def test_first_pick_strategies(lattice11):
    # grid centroid is (5, 5), node 60; all four corners tie for the
    # farthest spot and the lowest index wins
    c = select(lattice11, lattice11.boundary_ids, 3.0,
               strategy="centroid_nearest")
    f = select(lattice11, lattice11.boundary_ids, 3.0,
               strategy="farthest_point")
    assert c.order[0] == 60
    assert f.order[0] == 0


def test_deterministic_strategies_build_no_generator(lattice11, monkeypatch):
    expected = {s: select(lattice11, lattice11.boundary_ids, 2.1,
                          strategy=s).order
                for s in ("centroid_nearest", "farthest_point")}

    def no_generator(seed=None):
        raise AssertionError("a deterministic strategy built a generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    for strategy, order in expected.items():
        assert select(lattice11, lattice11.boundary_ids, 2.1,
                      strategy=strategy).order == order
    with pytest.raises(AssertionError):
        select(lattice11, lattice11.boundary_ids, 2.1, strategy="random")


def test_seed_point_must_be_candidate(lattice11):
    with pytest.raises(ValueError, match="candidate"):
        select(lattice11, lattice11.boundary_ids[:50], 2.0, seed_point=120)


def test_trace_records_pool_sizes(lattice11):
    res = select(lattice11, lattice11.boundary_ids, 2.1, seed_point=49)
    assert res.trace[0] == (49, 121)
    assert len(res.trace) == len(res.order)
    assert all(size >= 1 for _, size in res.trace[1:])


# the walk parameters' messages, the same from select and from the params
WALK_MESSAGES = {"radius": "radius must be positive",
                 "a": r"a must lie in \(0, 1\)", "b": "b must exceed 1",
                 "strategy": "strategy must be one of"}


def test_select_validates_arguments(lattice11):
    ids = lattice11.boundary_ids
    with pytest.raises(ValueError):
        select(lattice11, [], 1.0)
    with pytest.raises(ValueError):
        select(lattice11, [0, 0], 1.0)
    with pytest.raises(ValueError):
        select(lattice11, [0, 999], 1.0)
    with pytest.raises(ValueError, match=WALK_MESSAGES["radius"]):
        select(lattice11, ids, -1.0)
    with pytest.raises(ValueError, match=WALK_MESSAGES["a"]):
        select(lattice11, ids, 1.0, a=1.0)
    with pytest.raises(ValueError, match=WALK_MESSAGES["b"]):
        select(lattice11, ids, 1.0, b=1.0)
    with pytest.raises(ValueError, match=WALK_MESSAGES["strategy"]):
        select(lattice11, ids, 1.0, strategy="spiral")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000),
       nx=st.integers(4, 12), ny=st.integers(4, 12),
       radius=st.floats(0.3, 6.0),
       strategy=st.sampled_from(STRATEGIES))
def test_separation_and_covering_property(seed, nx, ny, radius, strategy):
    # jittered grid keeps points distinct without hypothesis filtering
    mesh = make_lattice2d(nx, ny, (float(nx), float(ny)))
    rng = np.random.default_rng(seed)
    nodes = mesh.nodes + rng.uniform(-0.2, 0.2, size=mesh.nodes.shape)
    mesh = mesh.with_nodes(nodes)
    res = select(mesh, mesh.boundary_ids, radius, strategy=strategy,
                 seed=seed)
    separation_and_covering(mesh, mesh.boundary_ids, res.selected, radius)


# ---------------------------------------------------------------------------
# multi-region runs and enrichment

def test_select_multi_union(wing):
    params = SelectionParams(
        (RegionParams("left", 0.08), RegionParams("right", 0.08),
         RegionParams("top", 0.4), RegionParams("bottom", 0.4),
         RegionParams("front", 0.4), RegionParams("rear", 0.4)),
        seed=7)
    res = select_multi(wing, params)
    assert set(res.per_region) == {"left", "right", "top", "bottom",
                                   "front", "rear"}
    union = np.unique(np.concatenate(
        [r.selected for r in res.per_region.values()]))
    np.testing.assert_array_equal(res.selected, union)
    for name, sub in res.per_region.items():
        assert np.isin(sub.selected, wing.group(name)).all()


def test_select_multi_rejects_overlapping_groups(wing):
    params = SelectionParams((RegionParams("left", 0.1),
                              RegionParams("left_edge", 0.1)))
    with pytest.raises(ValueError, match="overlap"):
        select_multi(wing, params)


def test_select_multi_needs_regions(wing):
    with pytest.raises(ValueError, match="no regions"):
        select_multi(wing, SelectionParams(()))


def test_select_multi_rejects_empty_group(lattice11):
    mesh = mk.Mesh(2, lattice11.nodes, lattice11.elements,
                   lattice11.boundary_ids, lattice11.interior_ids,
                   {"all": lattice11.boundary_ids, "none": []})
    params = SelectionParams((RegionParams("none", 1.0),))
    with pytest.raises(ValueError, match="empty"):
        select_multi(mesh, params)


def test_params_validation():
    region = RegionParams("left", 1.0)
    with pytest.raises(ValueError, match=WALK_MESSAGES["radius"]):
        RegionParams("left", 0.0)
    with pytest.raises(ValueError):
        SelectionParams((region, RegionParams("left", 2.0)))
    with pytest.raises(ValueError, match=WALK_MESSAGES["a"]):
        SelectionParams((region,), a=0.0)
    with pytest.raises(ValueError, match=WALK_MESSAGES["b"]):
        SelectionParams((region,), b=0.9)
    with pytest.raises(ValueError, match=WALK_MESSAGES["strategy"]):
        SelectionParams((region,), strategy="best")
    # every seed point key names a region, and every value is one node id
    with pytest.raises(ValueError, match=r"\['lefft', 'top'\] name no region "
                                         r"of \['left'\]"):
        SelectionParams((region,), seed_points={"top": 1, "lefft": 3})
    with pytest.raises(ValueError, match="boolean mask"):
        SelectionParams((region,), seed_points={"left": True})
    with pytest.raises(ValueError, match="integers"):
        SelectionParams((region,), seed_points={"left": 1.5})
    with pytest.raises(ValueError, match="not one id"):
        SelectionParams((region,), seed_points={"left": [1, 2]})
    pinned = SelectionParams((region,), seed_points={"left": np.int64(3)})
    assert pinned.seed_points == {"left": 3}
    assert type(pinned.seed_points["left"]) is int
    # the walk numbers and the seed are numbers, not cast; None is refused
    for bad in ("0.3", None, True, np.nan):
        with pytest.raises(ValueError, match=f"radius must be a finite "
                                             f"number, got {bad!r}"):
            RegionParams("left", bad)
    for name in ("a", "b"):
        with pytest.raises(ValueError, match=f"{name} must be a finite "
                                             "number, got None"):
            SelectionParams((region,), **{name: None})
    for bad in (7.9, None, "7", -1):
        with pytest.raises(ValueError, match=f"seed must be an integer "
                                             f">= 0, got {bad!r}"):
            SelectionParams((region,), seed=bad)
    params = SelectionParams((("left", 1),), b=2, seed=7.0)
    assert (type(params.regions[0].radius), type(params.b)) == (float, float)
    assert params.seed == 7 and type(params.seed) is int


def test_a_ragged_seed_point_is_not_one_id():
    # NumPy cannot take the ndim of [[1], [2, 3]]; the refusal is morphkit's
    with pytest.raises(ValueError, match=(
            r"^seed point \[\[1\], \[2, 3\]\] of 'left' is not one id$")):
        SelectionParams((RegionParams("left", 1.0),),
                        seed_points={"left": [[1], [2, 3]]})


def test_enrich_unions_groups(wing):
    base = wing.group("top")[:2]
    out = enrich(base, wing, ["left_edge", "right_edge"])
    expected = np.unique(np.concatenate(
        [base, wing.group("left_edge"), wing.group("right_edge")]))
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("groups", ["left_edge", 5, ["left_edge", 1]],
                         ids=["str", "int", "int entry"])
def test_enrich_needs_a_list_of_group_names(wing, groups):
    # a string is one name, not a list of its characters
    with pytest.raises(ValueError) as err:
        enrich([0], wing, groups)
    assert str(err.value) == f"group_names must list group names, got {groups!r}"


# ---------------------------------------------------------------------------
# random baseline

def test_select_random_sorted_and_seeded():
    ids = np.arange(40, 100)
    a = select_random(ids, 12, seed=5)
    b = select_random(ids, 12, seed=5)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.diff(a) > 0)
    assert np.isin(a, ids).all()
    assert not np.array_equal(select_random(ids, 12, seed=6), a)


def test_select_random_bounds():
    with pytest.raises(ValueError):
        select_random(np.arange(5), 0, seed=0)
    with pytest.raises(ValueError):
        select_random(np.arange(5), 6, seed=0)
    for k in (2.5, True, "3"):  # a count, not truncated or cast
        with pytest.raises(ValueError, match=f"k must be an integer >= 1, "
                                             f"got {k!r}"):
            select_random(np.arange(5), k, seed=0)


# every seed passes one gate, an integer >= 0, whatever the strategy
_SEEDED = {
    "select": lambda mesh, seed: select(mesh, mesh.boundary_ids, 2.1,
                                        seed=seed),
    "select-farthest": lambda mesh, seed: select(
        mesh, mesh.boundary_ids, 2.1, strategy="farthest_point", seed=seed),
    "select-random": lambda mesh, seed: select_random(mesh.boundary_ids, 3,
                                                      seed),
}


@pytest.mark.parametrize("seed", [7.9, -1, None])
@pytest.mark.parametrize("call", list(_SEEDED))
def test_seeds_are_integers_no_less_than_zero(lattice11, call, seed):
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, "
                                         f"got {seed!r}"):
        _SEEDED[call](lattice11, seed)


def test_baseline_stats_hand_case():
    # two draws 0 and 2: mean 1, sample std sqrt(2), deltas -/+ 1/sqrt(2)
    stats = random_baseline_stats([0.0, 2.0])
    assert stats.mean == pytest.approx(1.0)
    assert stats.std == pytest.approx(np.sqrt(2.0))
    assert stats.delta_min == pytest.approx(-1.0 / np.sqrt(2.0))
    assert stats.delta_max == pytest.approx(1.0 / np.sqrt(2.0))


def test_baseline_stats_errors():
    with pytest.raises(ValueError):
        random_baseline_stats([1.0])
    with pytest.raises(DegenerateSampleError):
        random_baseline_stats([1.0, 1.0, 1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            random_baseline_stats([0.1, bad, 0.3])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=40))
@example([0.7] * 3)   # the rounded mean leaves [min, max]
@example([0.7, 0.7, float(np.nextafter(0.7, 1.0))])
@example([1e-200, 2e-200])   # squared deviations underflow
@example([0.0, 5e-324])
def test_baseline_delta_signs(errors):
    errors = np.asarray(errors)
    if errors.min() == errors.max():
        with pytest.raises(DegenerateSampleError):
            random_baseline_stats(errors)
        return
    stats = random_baseline_stats(errors)
    assert stats.delta_min <= 0.0 <= stats.delta_max
    assert stats.delta_min < stats.delta_max


# ---------------------------------------------------------------------------
# persistence

def test_selection_roundtrip(lattice11, tmp_path):
    # a pinned first pick may come in as a NumPy int; the echo writes it as
    # a JSON number
    for seed_points in ({}, {"all": np.int64(49)}):
        params = SelectionParams((RegionParams("all", 2.1),), a=0.8, b=1.4,
                                 seed=9, seed_points=seed_points)
        res = select_multi(lattice11, params)
        path = tmp_path / "sel.json"
        write_selection(res, params, path)
        ids, echo = read_selection(path)
        np.testing.assert_array_equal(ids, res.selected)
        assert echo["a"] == 0.8 and echo["b"] == 1.4 and echo["seed"] == 9
        assert echo["regions"] == [{"group": "all", "radius": 2.1}]
        assert echo["seed_points"] == seed_points
        # the echo reproduces the run
        again = SelectionParams(
            tuple(RegionParams(**r) for r in echo["regions"]), echo["a"],
            echo["b"], echo["strategy"], echo["seed"], echo["seed_points"])
        np.testing.assert_array_equal(select_multi(lattice11, again).selected,
                                      ids)


def test_read_selection_rejects_non_integer_ids(tmp_path):
    path = tmp_path / "sel.json"
    path.write_text('{"selected": [1, 2.5], "params": {}, "trace": []}')
    with pytest.raises(ValueError) as err:
        read_selection(path)
    assert str(err.value) == (f"{path}: selected ids must be integers, "
                              "got [2.5]")


def test_read_selection_missing_key(tmp_path):
    path = tmp_path / "sel.json"
    path.write_text('{"selected": [1, 2]}')
    with pytest.raises(ValueError, match="missing key"):
        read_selection(path)
