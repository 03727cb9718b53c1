"""The properties the paper's claim rests on, one check function each.

`satprop verify` and `tests/test_acceptance.py` run them on their own
instance families.  A check returns None when its property holds on its
input, else a one-line description of the violation, naming the instance
by `name`.  Engine and oracle functions are looked up through their modules
at call time, so wrappers installed there see the calls.
"""

from __future__ import annotations

from typing import Iterable

from . import bitspace, oracle, propagate
from .bitspace import GREEN, RED, Partition, bs, ws
from .clausal import ClausalState, Instance
from .report import mask_hex

# Overlap layouts of two 3-variable cubes, sharing two or one variables.
LAYOUTS = {
    "overlap2": ((1, 2, 3), (2, 3, 4)),
    "overlap1": ((1, 2, 3), (3, 4, 5)),
}


def algebra_laws() -> str | None:
    """Closure, commutativity, associativity, distributivity, identities
    and absorption of WS and BS over both colors."""
    colors = (RED, GREEN)
    for a in colors:
        for b in colors:
            if ws(a, b) not in colors or bs(a, b) not in colors:
                return "closure violated"
            if ws(a, b) is not ws(b, a) or bs(a, b) is not bs(b, a):
                return f"commutativity violated at ({a}, {b})"
            for c in colors:
                if ws(ws(a, b), c) is not ws(a, ws(b, c)):
                    return "WS associativity violated"
                if bs(bs(a, b), c) is not bs(a, bs(b, c)):
                    return "BS associativity violated"
                if bs(a, ws(b, c)) is not ws(bs(a, b), bs(a, c)):
                    return "BS-over-WS distributivity violated"
                if ws(a, bs(b, c)) is not bs(ws(a, b), ws(a, c)):
                    return "WS-over-BS distributivity violated"
        if ws(a, RED) is not a:
            return "RED is not the WS identity"
        if bs(a, GREEN) is not a:
            return "GREEN is not the BS identity"
        if bs(a, RED) is not RED:
            return "RED is not BS-absorbing"
    return None


def bc_matches_join(layout: str, mask_a: int, mask_b: int) -> str | None:
    """`bitspace.bc` on one mask pair of a `LAYOUTS` entry equals
    `oracle.join_semantics_oracle`."""
    coords_a, coords_b = LAYOUTS[layout]
    p, q = Partition(coords_a, mask_a), Partition(coords_b, mask_b)
    got_p, got_q = bitspace.bc(p, q)
    want_p, want_q = oracle.join_semantics_oracle(p, q)
    if got_p.green_mask != want_p.green_mask or got_q.green_mask != want_q.green_mask:
        return f"bc mismatch on {layout} masks ({mask_hex(mask_a)}, {mask_hex(mask_b)})"
    return None


def project_lift_impose_laws(p: Partition, q: Partition) -> str | None:
    """Lifting back the projection of `p` onto the coordinates of `q` (a
    subset of those of `p`) keeps every GREEN cell of `p`, projecting a lift
    is the identity, and imposing `q` on `p` only removes cells."""
    proj = bitspace.project(p, q.coords)
    lifted = bitspace.lift(proj, p.coords)
    if lifted.green_mask & p.green_mask != p.green_mask:
        return "lift(project(p)) lost GREEN cells of p"
    if bitspace.project(lifted, q.coords).green_mask != proj.green_mask:
        return "project(lift(q)) != q"
    imposed = bitspace.impose(p, q)
    if imposed.green_mask & p.green_mask != imposed.green_mask:
        return "impose produced GREEN cells outside p"
    return None


def uni_bi_confluence(
    state: ClausalState, name: str, order_seeds: Iterable[int] = ()
) -> str | None:
    """The closed FIFO fixpoint of `state`, and the empty cube it reports,
    equal those of the two-sided sweep and those reached in random order
    under each of `order_seeds`.  FIFO and the random orders apply edges
    through separators, FIFO in queue order and a random order in shuffled
    passes, and the sweep lists the cubes' neighbours itself; each run
    builds its own graph."""
    base = propagate.fixpoint(state, early_exit=False)
    want = (base.fixpoint, base.empty_triple)
    bi = propagate.bidirectional_fixpoint(state)
    if (bi.fixpoint, bi.empty_triple) != want:
        return f"uni/bi fixpoint mismatch on {name}"
    for order_seed in order_seeds:
        alt = propagate.fixpoint(state, order_seed=order_seed, early_exit=False)
        if (alt.fixpoint, alt.empty_triple) != want:
            return f"confluence violated on {name}, order {order_seed}"
    return None


def sound(
    instance: Instance, result: propagate.PropagationResult, name: str
) -> str | None:
    """Every cell a satisfying assignment of `instance` projects to is still
    GREEN in `result`, and an empty cube means the instance is UNSAT."""
    projected = oracle.projected_solution_sets(instance, result.fixpoint.triples())
    for triple, cells in projected.items():
        if not all(result.fixpoint.cubes[triple] >> cell & 1 for cell in cells):
            return f"soundness violated on {name} triple {triple}"
    if result.empty_triple is not None and oracle.brute_force_sat(instance).satisfiable:
        return f"false UNSAT on {name}"
    return None
