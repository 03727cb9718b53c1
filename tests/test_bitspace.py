import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satprop import bitspace, checks
from satprop.bitspace import (
    GREEN,
    RED,
    Partition,
    assemble,
    bc,
    bc_uni,
    bs,
    impose,
    lift,
    project,
    ws,
)


def masks_of(pair):
    return pair[0].green_mask, pair[1].green_mask


# --- scalar operators -------------------------------------------------------

def test_ws_table():
    assert ws(RED, RED) is RED
    assert ws(RED, GREEN) is GREEN
    assert ws(GREEN, RED) is GREEN
    assert ws(GREEN, GREEN) is GREEN


def test_bs_table():
    assert bs(GREEN, GREEN) is GREEN
    assert bs(RED, GREEN) is RED
    assert bs(GREEN, RED) is RED
    assert bs(RED, RED) is RED


def test_identities_and_absorption():
    # checked along with the other scalar laws
    assert checks.algebra_laws() is None


# --- Partition basics -------------------------------------------------------

def test_partition_validation():
    cases = [
        ((2, 1), 0, "strictly ascending"),
        ((1, 1), 0, "strictly ascending"),
        ((0,), 0, "must be positive"),
        ((3, 0), 0, "must be positive"),  # positivity is checked before order
        ((1,), 0b100, "too wide"),
        ((1,), -1, "too wide"),
        ((), 0, "dimension 0 outside"),
        (tuple(range(1, 18)), 0, "dimension 17 outside"),
    ]
    for coords, mask, match in cases:
        for _ in range(2):  # the cached coordinate check never caches a failure
            with pytest.raises(ValueError, match=match):
                Partition(coords, mask)
    # a valid coordinate tuple, cached by a first construction, still checks
    # each mask
    assert Partition((1, 2), 0xF).green_mask == 0xF
    with pytest.raises(ValueError, match="too wide"):
        Partition((1, 2), 0x10)


def test_one_dimensional_space_has_four_partitions():
    seen = {Partition((1,), m).green_mask for m in range(4)}
    assert seen == {0b00, 0b01, 0b10, 0b11}
    with pytest.raises(ValueError):
        Partition((1,), 4)


# --- cellwise and cross products, through assemble ---------------------------

def test_cellwise_masks():
    # on one coordinate set, assemble is the cellwise operator
    p = Partition((1, 2, 3), 0xFE)
    q = Partition((1, 2, 3), 0x7F)
    assert assemble([p, q], "BS").green_mask == 0x7E
    a = Partition((1,), 0b01)
    b = Partition((1,), 0b10)
    assert assemble([a, b], "WS").green_mask == 0b11
    assert assemble([p, Partition.all_green((1, 2, 3))], "BS") == p


def test_cross_images():
    # on disjoint coordinate sets, assemble is the cross product
    p = Partition((1,), 0b01)
    q = Partition((2,), 0b01)
    assert assemble([p, q], "BS").green_mask == 0b0001
    assert assemble([p, q], "WS").green_mask == 0b0111
    r = assemble([Partition.all_green((1,)), Partition.all_green((2, 3))], "BS")
    assert r == Partition.all_green((1, 2, 3))


@given(st.integers(0, 3), st.integers(0, 15))
def test_cross_green_count_is_product(pm, qm):
    p = Partition((1,), pm)
    q = Partition((2, 3), qm)
    out = assemble([p, q], "BS")
    assert len(out.coords) == len(p.coords) + len(q.coords)  # cell counts multiply
    green = [part.green_mask.bit_count() for part in (out, p, q)]
    assert green[0] == green[1] * green[2]


# --- project / lift ----------------------------------------------------------

def test_project_single_green_cell():
    p = Partition((1, 2, 3), 1 << 7)
    assert project(p, (1, 2)).green_mask == 0b1000


def test_project_all_red():
    assert project(Partition((1, 2, 3), 0), (2,)).green_mask == 0


def test_project_two_red_fibers():
    # RED at cells 0=(F,F,F) and 1=(T,F,F); only the (u2,u3)=(F,F) fiber
    # is fully RED.  Expected mask derived by enumerating each fiber.
    p = Partition((1, 2, 3), 0xFC)
    assert project(p, (2, 3)).green_mask == 0b1110


def test_project_identity_and_errors():
    p = Partition((1, 2, 3), 0xA5)
    assert project(p, (1, 2, 3)) == p
    with pytest.raises(ValueError):
        project(p, ())
    with pytest.raises(ValueError):
        project(p, (4,))


def test_lift_cylinder():
    p = Partition((2,), 0b01)
    assert lift(p, (1, 2)).green_mask == 0b0011
    assert lift(p, (2,)) == p
    assert lift(Partition.all_green((2,)), (1, 2, 3)) == Partition.all_green((1, 2, 3))
    with pytest.raises(ValueError):
        lift(p, (1, 3))


@st.composite
def partitions(draw, max_k=4, universe=8):
    k = draw(st.integers(1, max_k))
    coords = tuple(sorted(draw(
        st.sets(st.integers(1, universe), min_size=k, max_size=k))))
    mask = draw(st.integers(0, (1 << (1 << k)) - 1))
    return Partition(coords, mask)


@given(partitions(), st.data())
def test_project_monotone(p, data):
    smaller = Partition(p.coords, p.green_mask & data.draw(
        st.integers(0, Partition.all_green(p.coords).green_mask)))
    sub = tuple(sorted(data.draw(
        st.sets(st.sampled_from(p.coords), min_size=1))))
    assert (
        project(smaller, sub).green_mask & project(p, sub).green_mask
        == project(smaller, sub).green_mask
    )


@given(partitions(), st.data())
def test_project_lift_laws(p, data):
    sub = tuple(sorted(data.draw(
        st.sets(st.sampled_from(p.coords), min_size=1))))
    q = Partition(sub, data.draw(st.integers(0, (1 << (1 << len(sub))) - 1)))
    assert checks.project_lift_impose_laws(p, q) is None


# --- impose ------------------------------------------------------------------

def test_impose_clears_restricted_cells():
    p = Partition.all_green((2, 3, 4))
    q = Partition((2, 3), 0b1110)  # RED at (F,F)
    assert impose(p, q).green_mask == 0xEE


def test_impose_identity_and_absorbing():
    p = Partition((1, 2, 3), 0x5A)
    assert impose(p, Partition.all_green((1, 2))) == p
    assert impose(p, Partition((2,), 0)).green_mask == 0
    with pytest.raises(ValueError):
        impose(Partition((1, 2), 0), Partition((3,), 0))


# --- bc / bc_uni -------------------------------------------------------------

def test_bc_all_green_identity():
    p = Partition.all_green((1, 2, 3))
    q = Partition.all_green((2, 3, 4))
    assert masks_of(bc(p, q)) == (0xFF, 0xFF)


def test_bc_prunes_unsupported_cells():
    p = Partition((1, 2, 3), 0xFC)  # RED at cells 0, 1
    q = Partition.all_green((2, 3, 4))
    out_p, out_q = bc(p, q)
    assert out_p == p
    assert out_q.green_mask == 0xEE


def test_bc_mutually_supported():
    p = Partition((1, 2, 3), 0xFE)  # clause u1 v u2 v u3
    q = Partition((2, 3, 4), 0x7F)  # clause ~u2 v ~u3 v ~u4
    assert masks_of(bc(p, q)) == (0xFE, 0x7F)


def test_bc_errors():
    for fn in (bc, bc_uni):
        for _ in range(2):  # the cached fiber pairs never cache a failure
            with pytest.raises(ValueError, match=r"disjoint.*\[1, 2, 3\] vs \[4, 5, 6\]"):
                fn(Partition((1, 2, 3), 0), Partition((4, 5, 6), 0))
            with pytest.raises(ValueError, match="differ"):
                fn(Partition((1, 2, 3), 0), Partition((1, 2, 3), 0xFF))


def test_bc_uni_examples():
    p = Partition.all_green((2, 3, 4))
    # q's projection onto (u2,u3) is RED exactly at (F,F)
    q = Partition((2, 3, 5), 0xEE)
    assert bc_uni(p, q).green_mask == 0xEE
    assert bc_uni(p, Partition.all_green((3, 4, 5))) == p


def _bc_uni_by_definition(p, q):
    shared = sorted(set(p.coords) & set(q.coords))
    return impose(p, project(q, shared))


@pytest.mark.parametrize("layout", sorted(checks.LAYOUTS))
def test_bc_uni_is_impose_of_projection_on_every_layout_pair(layout):
    coords_a, coords_b = checks.LAYOUTS[layout]
    parts_a = [Partition(coords_a, m) for m in range(256)]
    parts_b = [Partition(coords_b, m) for m in range(256)]
    for p in parts_a:
        for q in parts_b:
            assert bc_uni(p, q) == _bc_uni_by_definition(p, q)
            assert bc_uni(q, p) == _bc_uni_by_definition(q, p)


@given(partitions(), partitions())
def test_bc_uni_is_impose_of_projection_on_any_shape(p, q):
    assume(set(p.coords) & set(q.coords) and p.coords != q.coords)
    assert bc_uni(p, q) == _bc_uni_by_definition(p, q)
    assert bc_uni(q, p) == _bc_uni_by_definition(q, p)


@given(partitions(max_k=3), partitions(max_k=3))
def test_bc_contracting_and_idempotent(p, q):
    if not (set(p.coords) & set(q.coords)) or p.coords == q.coords:
        return
    out_p, out_q = bc(p, q)
    assert out_p.green_mask & p.green_mask == out_p.green_mask
    assert out_q.green_mask & q.green_mask == out_q.green_mask
    assert masks_of(bc(out_p, out_q)) == masks_of((out_p, out_q))
    uni = bc_uni(p, q)
    assert uni.green_mask & p.green_mask == uni.green_mask


@settings(deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_uni_alternation_reaches_bc_fixpoint(ma, mb):
    for ca, cb in checks.LAYOUTS.values():
        p, q = Partition(ca, ma), Partition(cb, mb)
        while True:
            p2 = bc_uni(p, q)
            q2 = bc_uni(q, p2)
            if (p2.green_mask, q2.green_mask) == (p.green_mask, q.green_mask):
                break
            p, q = p2, q2
        pair = bc(Partition(ca, ma), Partition(cb, mb))
        while True:
            nxt = bc(*pair)
            if masks_of(nxt) == masks_of(pair):
                break
            pair = nxt
        assert (p.green_mask, q.green_mask) == masks_of(pair)


# --- assemble ----------------------------------------------------------------

def test_assemble_single_part_identity():
    p = Partition((1, 2, 3), 0x3C)
    assert assemble([p], "BS") == p
    assert assemble([p], "WS") == p


def test_assemble_disjoint_equals_cross():
    p = Partition((1,), 0b01)
    q = Partition((2, 3), 0xA)
    # GREEN where u1 is F (p) and u2 is T (q's cells 1 and 3): cells 2 and 6
    assert assemble([p, q], "BS") == Partition((1, 2, 3), 0x44)


def test_assemble_two_cubes_matches_brute_force():
    # conjunction of the two cubes from the bc example, checked against
    # direct evaluation over all 16 assignments
    p = Partition((1, 2, 3), 0xFC)
    q = Partition.all_green((2, 3, 4))
    out = assemble([p, q], "BS")
    assert out.coords == (1, 2, 3, 4)
    expected = 0
    for cell in range(16):
        b1, b2, b3 = cell & 1, cell >> 1 & 1, cell >> 2 & 1
        if p.green_mask >> (b1 | b2 << 1 | b3 << 2) & 1:
            expected |= 1 << cell
    assert out.green_mask == expected


def test_assemble_errors():
    with pytest.raises(ValueError):
        assemble([], "BS")
    parts = [Partition((i, i + 1), 0xF) for i in range(1, 18, 2)]
    with pytest.raises(ValueError, match="exceeds"):
        assemble(parts, "BS")
