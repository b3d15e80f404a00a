"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Builds are shared session fixtures, so criteria reuse states instead
of rebuilding them.
"""

from fractions import Fraction as F

from fanforge import assemble, build
from fanforge.debski import jump_table
from fanforge.exact import Address, addresses_of_length, endpoint_one, endpoint_zero
from fanforge.floats import stage_fan_diameters
from fanforge.spaceset import region_between, sample_points
from fanforge.verify import (
    check_conditions_i_ii,
    check_null_sequence,
    copies_intersect,
    epsilon_connectivity,
    mst_max_edge,
    run_all,
    sweep_level,
)
from fanforge.decomp import claim5_regions, collapse_E

from .oracles import (
    band_oracle,
    coverage_gap_for_column,
    fiber_isolation_witnesses,
    pointwise_below_oracle,
    q_points,
)


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_stage_cardinalities(st_1_4):
    sizes = [len(stage.rects) for stage in st_1_4.stages]
    ok = sizes == [1, 12]
    assert report(1, ok, f"stage sizes {sizes} on (K=1, N=4)")


def test_criterion_02_conditions_i_ii_depth_five(st_5_32t):
    records = check_conditions_i_ii(st_5_32t)
    ok = all(r.status == "pass" for r in records)
    detail = (
        f"(K=5, N=32) addresses and heights exact on {len(records)} stages; "
        f"heights {[r.metrics['max_height'] for r in records]}"
    )
    assert report(2, ok, detail)


def test_criterion_03_disjointness(st_4_32):
    (record,) = run_all(st_4_32, checks=["disjointness"]).records
    # the sharp corner-touch pair is adjudicated inside the same predicate
    sharp = copies_intersect(st_4_32.copies[0], st_4_32.copies[2])
    ok = record.status == "pass" and sharp is None
    detail = (
        f"(K=4, N=32) zero intersections over {record.metrics['pairs_checked']} pairs; "
        "corner-touch pair disjoint"
    )
    assert report(3, ok, detail)


def test_criterion_04_coverage(st_4_32, st_0_4):
    ok = all(sweep_level(st_4_32, n).records["coverage"].status == "pass" for n in range(5))
    gap0, count0 = coverage_gap_for_column(st_0_4, Address())
    ok = ok and gap0 == F(1, 16) and count0 == 1
    detail = f"(K=4, N=32) gaps within budget for n<=4; (n=0, N=4) gap = {gap0}"
    assert report(4, ok, detail)


def test_criterion_05_condition_v(st_4_32):
    records = [sweep_level(st_4_32, n).records["condition-v"] for n in range(5)]
    ok = all(r.status == "pass" for r in records)
    checked = sum(r.metrics["gaps_checked"] for r in records)
    assert report(5, ok, f"(K=4, N=32) every maximal gap verified; {checked} gaps")


def test_criterion_06_debski_identities():
    n_jumps = 32
    table = jump_table(n_jumps)
    identity = build(0, n_jumps).copies[0]  # the unit-square copy: D itself
    intervals = [identity.jump_global(identity.jump_pos(n))[1:] for n in range(n_jumps)]
    widths_ok = all(
        hi - lo == F(1, 2 ** (n + 1)) == F(table.values[pos + 1] - table.values[pos], 2**n_jumps)
        for n, ((lo, hi), pos) in enumerate(zip(intervals, table.pos_of_index))
    )
    total = sum(hi - lo for lo, hi in intervals)
    mass_ok = total == 1 - F(1, 2**n_jumps) == F(table.values[-1], 2**n_jumps)
    mids_ok = all(
        mid == lo + F(1, 2 ** (n + 2))
        for n, ((_, mid), (lo, _)) in enumerate(zip(identity.midpoints_global(range(n_jumps)), intervals))
    )
    ok = widths_ok and mass_ok and mids_ok
    assert report(6, ok, f"N=32 jump widths, total mass {total}, midpoint heights exact")


def test_criterion_07_fiber_isolation(model_2_16):
    witnesses = fiber_isolation_witnesses(model_2_16)
    ok = witnesses == []
    detail = f"(K=2, N=16) all {len(q_points(model_2_16))} q points isolated in their segments"
    assert report(7, ok, detail)


def test_criterion_08_region_boundaries(model_3_16):
    state = model_3_16.state
    pairs = []
    for sigma in addresses_of_length(3):
        left, right = endpoint_zero(sigma), endpoint_one(sigma)
        ids = sorted(
            state.chain_ids(sigma),
            key=lambda cid: band_oracle(state.copies[cid], left, right),
        )
        for low, up in zip(ids, ids[1:]):
            if pointwise_below_oracle(state.copies[low], state.copies[up], sigma):
                pairs.append((low, up, sigma))
        if len(pairs) >= 20:
            break
    pairs = pairs[:20]
    ok = len(pairs) == 20
    for low, up, sigma in pairs:
        region = region_between(model_3_16, low, up, sigma)
        allowed = set(state.copies[low].midpoints_global(range(16))) | set(
            state.copies[up].midpoints_global(range(16))
        )
        pts = list(region.boundary)
        distinct = len(set(pts)) == len(pts) > 0
        min_sep = min(
            (max(abs(p[0] - q[0]), abs(p[1] - q[1])) for i, p in enumerate(pts) for q in pts[i + 1:]),
            default=F(1),
        )
        ok = ok and set(pts) <= allowed and distinct and min_sep > 0
    assert report(8, ok, f"(K=3, N=16) {len(pairs)} region boundaries discrete in midpoint images")


def test_criterion_09_epsilon_trend():
    stars = {}
    ok = True
    for depth in (2, 3, 4):
        state = build(depth, 16, strict=depth < 4)
        cloud = sample_points(assemble(state), depth + 2, 3)
        coords = cloud.coordinates()
        eps = mst_max_edge(coords)
        stars[depth] = eps
        at_star = epsilon_connectivity(coords, eps)
        at_half = epsilon_connectivity(coords, eps / 2)
        ok = ok and at_star == 1 and at_half >= 2
    ok = ok and stars[2] >= stars[3] >= stars[4]
    detail = "eps*(K): " + ", ".join(f"K={k}: {v:.6f}" for k, v in stars.items())
    assert report(9, ok, detail)


def test_criterion_10_null_sequence(st_4_16t, model_4_16t):
    record = check_null_sequence(st_4_16t)
    profile = stage_fan_diameters(st_4_16t)
    ratios_ok = True
    for cid in range(0, len(st_4_16t.copies), 97):
        heights = [loop.height for loop in collapse_E(model_4_16t, cid).loops]
        ratios_ok = ratios_ok and {b / a for a, b in zip(heights, heights[1:])} == {F(1, 2)}
    ok = record.status == "pass" and ratios_ok
    detail = (
        f"(K=4, N=16) max fan diameter stage 4 = {profile[4]:.4f} < stage 1 = {profile[1]:.4f}; "
        "loop ratio 1/2 exact"
    )
    assert report(10, ok, detail)


def test_criterion_11_claim5_regions(model_4_16t):
    first = claim5_regions(model_4_16t, 0, 1, 0)
    second = claim5_regions(model_4_16t, 0, 2, 0)
    ok = (
        first.boundary_ok
        and second.boundary_ok
        and second.distance_above < first.distance_above
    )
    detail = (
        f"(K=4, N=16) boundaries contained; column distance to loop top "
        f"{float(first.distance_above):.6f} -> {float(second.distance_above):.6f}"
    )
    assert report(11, ok, detail)


def test_criterion_12_pipeline_determinism(tmp_path):
    from fanforge.cli import main

    outputs = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        state = base / "state.json"
        reportfile = base / "report.json"
        fan = base / "fan.svg"
        til = base / "tiling.svg"
        assert main(["build", "--depth", "2", "--jumps", "16", "--out", str(state)]) == 0
        assert main(["verify", "--state", str(state), "--out", str(reportfile)]) == 0
        assert main(["render", "--state", str(state), "--figure", "fan", "--out", str(fan)]) == 0
        assert main(["render", "--state", str(state), "--figure", "tiling", "--out", str(til)]) == 0
        outputs.append(
            tuple(p.read_bytes() for p in (state, reportfile, fan, til))
        )
    ok = outputs[0] == outputs[1]
    assert report(12, ok, "(K=2, N=16) build/verify/render byte-identical across runs")
