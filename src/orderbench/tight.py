"""Covering relation, tight maps, the regular-open enveloping algebra, and
universal factoring.

This module treats any structure as a p0set through its reflexivization:
all bounds, meet-relations and covers below are computed from the derived
order.  On a reflexive structure they coincide with the strict-relation
versions.

The carrier minus zero carries the topology whose closed sets are the
up-closed sets; regular opens of that space form a Boolean algebra, and
the subalgebra generated by the principal regularizations is the
enveloping generalized Boolean algebra.  On a finite carrier that
algebra is the powerset of its atoms, and its elements are atom masks.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, product
from pathlib import Path
from typing import NamedTuple

from .core import (
    MAX_SIZE,
    P0Set,
    SubsetMask,
    bits,
    derived_relations,
    full_mask,
    lattice_tables,
    load_linked,
    maximal_centred_sets,
    meets_preceq,
    meet_rows,
    order_predicates,
    p0set,
    structure_table,
    submasks,
    subset_fold,
    transpose,
    union_rows,
)
from .errors import CapExceeded, InputError, InternalCheckFailed, PreconditionFailed
from .report import Check, Report, report

# ---------------------------------------------------------------------------
# covers


def lower_bounds(B: P0Set, C: SubsetMask) -> SubsetMask:
    """Common lower bounds of C under the derived order; the empty set's
    bounds are the whole carrier."""
    return meet_rows(derived_relations(B).preceq_down, C, full_mask(B.size))


def covers(B: P0Set, C: SubsetMask, D: SubsetMask) -> bool:
    """Every common lower bound of C is zero or meets a member of D."""
    return lower_bounds(B, C) & ~union_rows(meets_preceq(B), D, 1 << B.zero) == 0


# ---------------------------------------------------------------------------
# structure maps


class StructMapTotal(NamedTuple):
    """A total map between carriers; assignment[x] is the target index."""

    source: P0Set
    target: P0Set
    assignment: tuple[int, ...]


def struct_map(source: P0Set, target: P0Set, assignment) -> StructMapTotal:
    """A structure map from an assignment, refused as input unless it sends
    every element into the target and zero to zero."""
    assignment = tuple(assignment)
    if len(assignment) != source.size or any(
        not 0 <= t < target.size for t in assignment
    ):
        raise InputError("assignment has wrong shape")
    if assignment[source.zero] != target.zero:
        raise InputError(f"zero maps to {assignment[source.zero]}")
    return StructMapTotal(source, target, assignment)


def zero_preserving_maps(B: P0Set, A: P0Set):
    """Every map from B to A that sends zero to zero, in lexicographic
    order of the values on the other elements."""
    z = B.zero
    for vals in product(range(A.size), repeat=B.size - 1):
        yield StructMapTotal(B, A, vals[:z] + (A.zero,) + vals[z:])


def identity_map(B: P0Set) -> StructMapTotal:
    return StructMapTotal(B, B, tuple(range(B.size)))


def compose_maps(first: StructMapTotal, then: StructMapTotal) -> StructMapTotal:
    if first.target != then.source:
        raise InputError("inner carriers differ")
    return StructMapTotal(
        first.source,
        then.target,
        tuple(then.assignment[t] for t in first.assignment),
    )


def load_struct_map(text: str, base_dir: str | Path = ".") -> StructMapTotal:
    """Parse {"from": path, "to": path, "map": [int, ...]}."""
    source, target, assignment = load_linked(text, base_dir, "map")
    if not isinstance(assignment, list) or not all(type(t) is int for t in assignment):
        raise InputError("map must be a list of target indices")
    return struct_map(source, target, assignment)


@structure_table
def _target_rows(A: P0Set):
    """What map classification reads of a target, in one lookup: (maximal
    centred sets, the up-rows of the nonzero elements, the nonzero mask,
    algebra flag)."""
    return (
        maximal_centred_sets(A),
        tuple(0 if t == A.zero else row for t, row in enumerate(derived_relations(A).preceq)),
        full_mask(A.size) & ~(1 << A.zero),
        order_predicates(A).holds("generalized_boolean"),
    )


def map_properties(beta: StructMapTotal) -> Report:
    """Tight / tightish / coinitial / representation / character flags.

    A source pair (F, G) fails when F covers G in the source but beta[F]
    does not cover beta[G] in the target; beta is tight when no pair
    fails, and tightish when no pair with F nonempty does.  Both are read
    off the maximal centred sets U of the target: beta is tight exactly
    when every preimage M = beta^-1(U) is a maximal centred set of the
    source, and tightish exactly when every nonempty one is.

    F covers G exactly when G meets `meets_preceq[e]` for every nonzero
    lower bound e of F, so a pair fails in the target through a nonzero a
    below every beta(x), x in F, that meets no beta(g), g in G.  Let
    F_a = {x : a <= beta(x)} and P_a = {g : beta(g) meets a}.  Covering is
    upward closed in F (lower bounds shrink as F grows) and in G, so a
    failing pair through a exists exactly when (F_a, carrier - P_a)
    covers.  If a <= a' then F_a holds F_a' and P_a lies in P_a', so a
    minimal nonzero a fails whenever one above it does, and for a minimal
    a, P_a = F_a = beta^-1(up a), with up a a maximal centred set U.
    M = beta^-1(U) fails to cover carrier - M exactly when some nonzero
    lower bound e of M has `meets_preceq[e]` inside M.  As M lies in
    `preceq[e]`, which lies in `meets_preceq[e]`, the three are equal,
    which makes e minimal: M passes exactly when it is a maximal centred
    set of the source, also when a nonzero element lies below zero.  A
    failing pair with F nonempty has F inside M, so M is nonempty.

    The witness is (M, carrier - M) of the first U that fails, for
    tightish the first with M nonempty.  beta is coinitial when every
    nonzero a lies above a nonzero value; the witness is the least a
    outside the union of the nonzero values' up-rows.  The cost is one
    pass over the assignment per maximal centred set of the target and
    one for that union, at every size.
    """
    B, A = beta.source, beta.target
    img = beta.assignment
    if img[B.zero] != A.zero:
        raise PreconditionFailed(f"zero maps to {img[B.zero]}")
    centredA, ups, nonzero, rep = _target_rows(A)
    centredB = maximal_centred_sets(B)
    carrier = full_mask(B.size)

    tight_w = tightish_w = None
    for U in centredA:
        M = 0
        for x, t in enumerate(img):
            if U >> t & 1:
                M |= 1 << x
        if M not in centredB:
            w = (M, carrier & ~M)
            tight_w = tight_w or w
            if M:
                tightish_w = w
                break

    above = 0
    for t in img:
        above |= ups[t]
    lonely = nonzero & ~above
    coin_w = ((lonely & -lonely).bit_length() - 1,) if lonely else None

    return _map_report(tight_w, tightish_w, coin_w, rep, rep and A.size == 2)


@lru_cache(maxsize=4096)
def _map_report(tight_w, tightish_w, coin_w, rep, character) -> Report:
    """The report of a map with these witnesses and flags.  Maps share a
    handful of verdicts, so each distinct one is built once; the key
    holds no structure."""
    return Report(
        "map_properties",
        (
            Check("tight", tight_w is None, tight_w),
            Check("tightish", tightish_w is None, tightish_w),
            Check("coinitial", coin_w is None, coin_w),
            Check("representation", rep),
            Check("character", character),
        ),
        passed=tight_w is None,
    )


# ---------------------------------------------------------------------------
# the punctured carrier and its regular opens


class RegularOpenAlgebra(NamedTuple):
    """The generalized Boolean subalgebra of the regular opens generated by
    the principal regularizations, as the powerset of its k atoms.

    An element T is an atom mask in range(2**k): meet is T & U, join
    T | U, relative complement T & ~U, the top 2**k - 1, and ultrafilter
    i is {T : bit i of T is set}.  Atom i has the carrier mask
    `signatures[i]` = {x : atom i lies in rho(x)} and the open points
    `opens[i]`; atoms are sorted by signature.  rho(x) is the
    regularization of the punctured principal down-set of x, and
    `rho_index[x]` is its atom mask: the classes of the minimal opens it
    contains, which fix it.  So rho(x) = rho(x') exactly when
    `rho_index[x] == rho_index[x']`.
    """

    signatures: tuple[SubsetMask, ...]
    opens: tuple[SubsetMask, ...]
    rho_index: tuple[int, ...]

    def as_p0set(self) -> P0Set:
        """The algebra indexed by T and ordered by inclusion of atom masks,
        refused past MAX_SIZE elements (6 atoms) before any 2**k work."""
        k = len(self.signatures)
        if 1 << k > MAX_SIZE:
            raise CapExceeded(f"enveloping algebra of {k} atoms exceeds the carrier cap {MAX_SIZE}")
        return _powerset_p0set(k)


@lru_cache(maxsize=None)
def _powerset_p0set(k: int) -> P0Set:
    """The atom masks of k atoms ordered by inclusion; k <= 6 under MAX_SIZE."""
    size = 1 << k
    return p0set(size, 0, ((T, U) for U in range(size) for T in submasks(U)))


@structure_table
def enveloping_algebra(B: P0Set) -> RegularOpenAlgebra:
    """The regular opens generated by the rho(x), from their atoms.

    A point v of the punctured carrier is a minimal open when its
    punctured down-set is its own class.  Minimal opens are dense, so a
    regular open is fixed by the minimal opens it contains, and the
    regular opens are the powerset of the minimal opens.  The subalgebra
    generated by the rho(x) is then the powerset of the classes of
    minimal opens with the same signature {x : v in rho(x)}.

    For a minimal open v the signature is {x : v meets x}: v lies in the
    regularization of the punctured down-set of x exactly when it lies in
    its closure, since every point below v is equivalent to v, that is
    when some nonzero d lies below both x and v.  It holds v itself, so it
    is never empty.
    """
    der = derived_relations(B)
    prime = full_mask(B.size) & ~(1 << B.zero)
    mp = meets_preceq(B)
    atoms: dict[int, int] = {}
    for v in bits(prime):
        if der.preceq_down[v] & prime & ~der.preceq[v] == 0:
            atoms[mp[v]] = atoms.get(mp[v], 0) | 1 << v
    sigs = tuple(sorted(atoms))
    return RegularOpenAlgebra(sigs, tuple(atoms[s] for s in sigs), tuple(transpose(sigs, B.size)))


def verify_fgrho(B: P0Set) -> Report:
    """Check that F covers G exactly when the meet of the rho(x) over F
    lies below the join of the rho(x) over G, for all finite F, G.

    With mp = `meets_preceq(B)`, symmetric, col_i = {g : bit i of
    `rho_index[g]`} and cap(F) the meet of the `rho_index` rows over F, F
    covers G iff G meets mp[e] for every nonzero lower bound e of F, and
    the meet lies below the join iff G meets col_i for every atom i of
    cap(F).  Both families shrink as F grows, and a G meeting every member
    still does as it grows.  So a mismatch where G misses col_i, i in
    cap(F), grows to the mismatch (col_i, carrier - col_i), as F lies
    inside col_i, and one where G misses mp[e] grows to (`preceq[e]`,
    carrier - mp[e]), as F lies inside `preceq[e]`.  The equivalence
    fails iff (a) some nonzero e has no atom i of cap(`preceq[e]`) with
    col_i inside mp[e], or (b) some atom i has no nonzero lower bound e of
    col_i with mp[e] inside col_i.  Those pairs are the witnesses, (a)
    first, by ascending e and i; each F is the largest of its key (lower
    bounds, cap), as adding an element drops e or i from it.  The columns
    are read from `rho_index`, so the check stays literal on a planted
    algebra.  The cost is O(n(n + k)) row operations for k atoms.
    """
    S = enveloping_algebra(B)
    der, mp = derived_relations(B), meets_preceq(B)
    carrier, nonzero = full_mask(B.size), full_mask(B.size) & ~(1 << B.zero)
    top = full_mask(len(S.signatures))
    cols = transpose(S.rho_index, len(S.signatures))
    fails_a = ((der.preceq[e], carrier & ~mp[e]) for e in bits(nonzero)
               if all(cols[i] & ~mp[e] for i in bits(meet_rows(S.rho_index, der.preceq[e], top))))
    fails_b = ((col, carrier & ~col) for col in cols
               if all(mp[e] & ~col for e in bits(meet_rows(der.preceq_down, col, nonzero))))
    w = next(chain(fails_a, fails_b), None)
    return report("image_cover_equivalence", [Check("equivalence", w is None, w)])


# ---------------------------------------------------------------------------
# universal factoring


def factor_tight(beta: StructMapTotal) -> StructMapTotal:
    """Factor a tightish representation through the enveloping algebra.

    Atom i is the meet of the rho(x) with x in its signature, minus the
    join of the other rho(x).  A homomorphism restricting to beta must
    send it to the same expression in beta's values, and T to the join
    of its atoms' values.  The subtraction changes nothing: the signature
    is the set of elements meeting a minimal open v, so an x outside it
    does not meet v, and a tightish map sends the two to disjoint values;
    the meet lies below beta(v), so it is already disjoint from beta(x).
    The map is a homomorphism when the atom values are pairwise disjoint,
    and it restricts to beta when it sends each rho(x) to beta(x).  The
    factoring theorem guarantees both; a failure raises
    InternalCheckFailed.  An algebra of more than 6 atoms, past
    MAX_SIZE elements, is refused before any work on its 2**k elements.
    """
    B, A = beta.source, beta.target
    props = map_properties(beta)
    if not props.holds("tightish"):
        raise PreconditionFailed("factoring needs a tightish map")
    if not props.holds("representation"):
        raise PreconditionFailed("factoring needs an algebra target")
    S = enveloping_algebra(B)
    algebra = S.as_p0set()
    mtA, jtA = lattice_tables(A)
    img = beta.assignment
    values = [reduce(lambda a, b: mtA[a][b], (img[x] for x in bits(sig)))
              for sig in S.signatures]
    for i, u in enumerate(values):
        for j, v in enumerate(values[:i]):
            if mtA[u][v] != A.zero:
                raise InternalCheckFailed(f"atoms {j} and {i} have overlapping values")
    pi = StructMapTotal(algebra, A, subset_fold(values, lambda a, b: jtA[a][b], A.zero))
    for x in range(B.size):
        if pi.assignment[S.rho_index[x]] != img[x]:
            raise InternalCheckFailed("factored map disagrees with the input")
    return pi


def naturality_square(beta: StructMapTotal) -> tuple[StructMapTotal, Report]:
    """Factor the composite of beta with the target's principal embedding
    and verify the resulting square commutes."""
    B, A = beta.source, beta.target
    props = map_properties(beta)
    if not props.holds("tightish"):
        raise PreconditionFailed("naturality needs a tightish map")
    SA = enveloping_algebra(A)
    SB = enveloping_algebra(B)
    rho_beta = StructMapTotal(
        B, SA.as_p0set(), tuple(SA.rho_index[beta.assignment[x]] for x in range(B.size))
    )
    pi = factor_tight(rho_beta)
    w = None
    for x in range(B.size):
        if pi.assignment[SB.rho_index[x]] != SA.rho_index[beta.assignment[x]]:
            w = (x,)
            break
    rep = report("naturality_square", [Check("square_commutes", w is None, w)])
    return pi, rep


def functor_identity(B: P0Set) -> Report:
    """The factored identity map is the identity on the algebra."""
    pi, rep = naturality_square(identity_map(B))
    ident = pi.assignment == tuple(range(len(pi.assignment)))
    return report(
        "functor_identity",
        list(rep.checks) + [Check("identity_preserved", ident)],
    )


def functor_composition(beta: StructMapTotal, beta2: StructMapTotal) -> Report:
    """Factoring a composite equals composing the factored maps."""
    if beta.target != beta2.source:
        raise InputError("maps do not compose")
    pi1, r1 = naturality_square(beta)
    pi2, r2 = naturality_square(beta2)
    pic, rc = naturality_square(compose_maps(beta, beta2))
    law = pic.assignment == compose_maps(pi1, pi2).assignment
    checks = [
        Check("first_square", r1.passed),
        Check("second_square", r2.passed),
        Check("composite_square", rc.passed),
        Check("composition_law", law),
    ]
    return report("functor_composition", checks)
