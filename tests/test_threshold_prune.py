"""Bound-and-prune in the Hom/HomI threshold search.

The search simulates only candidates whose closed-form makespan bound can
still beat the incumbent.  These tests pin the bound against the simulator
and the pruned search against an exhaustive search written out here.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockGrid
from repro.core.layout import overlapped_mu
from repro.experiments.figures import fig7_instances
from repro.obs import snapshot, snapshot_delta
from repro.platform.model import Platform, Worker
from repro.schedulers.homogeneous import (
    BOUND_SLACK,
    homogeneous_plan,
    homogeneous_worker_count,
    virtual_makespan_bound,
)
from repro.schedulers.registry import make_scheduler
from repro.sim.fastpath import fast_simulate

grids = st.builds(
    BlockGrid,
    r=st.integers(1, 14),
    t=st.integers(1, 9),
    s=st.integers(1, 20),
    q=st.just(2),
)
costs = st.floats(0.01, 50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(grid=grids, n=st.integers(1, 9), mu=st.integers(1, 7), c=costs, w=costs)
def test_bound_never_exceeds_simulated_makespan(grid, n, mu, c, w):
    """Covers ragged ``r % mu``/``s % mu`` and more workers than panels."""
    plan = homogeneous_plan(grid, n_workers=n, mu=mu, enrolled=list(range(n)), total_workers=n)
    virtual = Platform.homogeneous(n, c, w, mu * mu + 4 * mu)
    makespan = fast_simulate(virtual, plan, grid).makespan
    assert virtual_makespan_bound(grid, n, mu, c, w) * (1 - BOUND_SLACK) <= makespan


def test_bound_is_tight_when_the_port_dominates():
    """One worker on a slow link: the port idles only while each chunk's
    last round computes before its C return, so the simulated makespan is
    the port bound plus those short tails."""
    grid = BlockGrid(r=5, t=4, s=7, q=2)
    plan = homogeneous_plan(grid, n_workers=1, mu=3, enrolled=[0], total_workers=1)
    makespan = fast_simulate(Platform.homogeneous(1, 10.0, 0.001, 21), plan, grid).makespan
    assert makespan == pytest.approx(virtual_makespan_bound(grid, 1, 3, 10.0, 0.001), rel=1e-4)


def _thresholds(name, platform):
    """Hom: every memory size; HomI: every (memory, link, speed) triple."""
    ms, cs, ws = sorted(set(platform.ms)), sorted(set(platform.cs)), sorted(set(platform.ws))
    out = []
    for m in ms:
        if not name.startswith("HomI"):
            enrolled = [x.index for x in platform if x.m >= m]
            out.append((enrolled, max(platform[i].c for i in enrolled),
                        max(platform[i].w for i in enrolled), m))
            continue
        for c in cs:
            for w in ws:
                enrolled = [x.index for x in platform if x.m >= m and x.c <= c and x.w <= w]
                if enrolled:
                    out.append((enrolled, c, w, m))
    return out


def _exhaustive_plan(name, platform, grid):
    """Simulate every threshold candidate and keep the first best one."""
    sched = make_scheduler(name)
    pgrid = sched.geometry.plan_grid(grid)
    best, seen = None, set()
    for enrolled, c, w, m in _thresholds(name, platform):
        try:
            mu = overlapped_mu(m)
        except ValueError:
            continue
        n = homogeneous_worker_count(len(enrolled), mu, c, w)
        if (n, mu, c, w) in seen:
            continue
        seen.add((n, mu, c, w))
        plan = homogeneous_plan(pgrid, n_workers=n, mu=mu, enrolled=list(range(n)), total_workers=n)
        est = fast_simulate(Platform.homogeneous(n, c, w, m), plan, pgrid).makespan
        if best is None or est < best[0]:
            best = (est, enrolled, c, w, m, n, mu)
    est, enrolled, c, w, m, n, mu = best
    ranked = sorted(enrolled, key=lambda i: (platform[i].w, platform[i].c, i))
    plan = homogeneous_plan(pgrid, n_workers=n, mu=mu, enrolled=ranked[:n], total_workers=platform.p)
    return sched.geometry.finalize(plan, grid), est, {"c": c, "w": w, "m": m}, len(seen)


def _assert_same_choice(name, platform, grid):
    oracle, est, apparent, candidates = _exhaustive_plan(name, platform, grid)
    plan = make_scheduler(name).plan(platform, grid)
    assert plan.meta["virtual_estimate"] == est
    assert plan.meta["apparent"] == apparent
    assert plan.meta["enrolled"] == oracle.meta["enrolled"]
    assert plan.assignments == oracle.assignments
    assert plan.policy.order == oracle.policy.order
    search = plan.meta["threshold_search"]
    assert search["candidates"] == candidates
    assert search["simulated"] + search["pruned"] == candidates
    assert search["incumbent"] >= est


@pytest.mark.parametrize("name", ["Hom", "HomI", "HomL", "HomIL"])
@pytest.mark.parametrize("index", [0, 3, 6])
def test_pruned_search_matches_exhaustive_on_fig7(name, index):
    inst = fig7_instances(0.1)[index]
    _assert_same_choice(name, inst.platform, inst.grid)


workers = st.tuples(
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    st.integers(5, 60),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    params=st.lists(workers, min_size=1, max_size=6),
    grid=st.builds(BlockGrid, r=st.integers(1, 11), t=st.integers(1, 6),
                   s=st.integers(1, 17), q=st.just(2)),
    name=st.sampled_from(["Hom", "HomI", "HomL", "HomIL"]),
)
def test_pruned_search_matches_exhaustive_on_random_platforms(params, grid, name):
    platform = Platform([Worker(i, c, w, m) for i, (c, w, m) in enumerate(params)])
    _assert_same_choice(name, platform, grid)


def test_cost_objective_scores_every_candidate(het_platform, small_grid):
    """A cost score is not bounded by the makespan bound: nothing is pruned."""
    plan = make_scheduler("HomI", objective="cost@1e9").plan(het_platform, small_grid)
    search = plan.meta["threshold_search"]
    _, _, _, candidates = _exhaustive_plan("HomI", het_platform, small_grid)
    assert search == {
        "candidates": candidates,
        "simulated": candidates,
        "pruned": 0,
        "incumbent": None,
    }


def test_homi_prunes_most_of_a_fig7_search():
    """Every fig7 platform: HomI simulates fewer than half its candidates,
    and the obs counters agree with the plans' own accounts."""
    before = snapshot()
    total = pruned = 0
    for inst in fig7_instances(0.1):
        search = make_scheduler("HomI").plan(inst.platform, inst.grid).meta["threshold_search"]
        assert search["simulated"] < search["candidates"] / 2, inst.label
        total += search["candidates"]
        pruned += search["pruned"]
    delta = snapshot_delta(before)
    assert delta["hom.search.candidates"] == total
    assert delta["hom.search.pruned"] == pruned
