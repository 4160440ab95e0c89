"""Acceptance gate: every check of the verification suite must pass.

The suite runs in exact rational arithmetic with zero tolerance; each
test below asserts one named check and surfaces its failure detail.
Scopes (full finite groups, length-bounded universal systems, the
default rank-3 bound) live in `bmsheaves.verify` (`SuiteContext.bm_scope`
and `_KL_SCOPE`); the randomized trials are seeded and reproducible.
"""

import pytest

from bmsheaves.verify import CRITERIA, run_suite


@pytest.fixture(scope="module")
def results():
    out = run_suite(extended=False)
    print("\nacceptance suite timing:")
    for r in out:
        print(f"  {r}")
    print(f"  total: {sum(r.seconds for r in out):.1f}s")
    return {r.name: r for r in out}


def _passed(results, name):
    r = results[name]
    assert r.ok, f"{name} failed: {r.detail}"
    return r


def test_the_suite_covers_every_registered_check(results):
    assert [name for name, _ in CRITERIA] == list(results)
    assert len(results) == 12


def test_both_self_dual_basis_routes_agree(results):
    """Product recursion vs duality solve, on all finite presets, the
    universal rank-2 system to length 6 and rank 3 to length 4."""
    _passed(results, "kl-oracle-agreement")


def test_sheaf_characters_equal_the_self_dual_basis(results):
    """The graded character of every canonical sheaf in scope matches the
    corresponding self-dual basis element coefficient by coefficient."""
    _passed(results, "bm-characters-match-kl-basis")


def test_pinned_hecke_values(results):
    """Identity and generator elements, the quadratic relation, squares of
    the generator elements, and the pure-power coefficients of straight
    words in the universal rank-3 system."""
    _passed(results, "explicit-hecke-values")


def test_costalk_positivity_and_forbidden_pattern(results):
    """Every subleading character coefficient lies in v Z[v] and the
    two-generator costalk pattern (v^k + v^2k at corank k) never occurs."""
    _passed(results, "costalk-positivity")


def test_product_recursion_identities(results):
    """The logged products C_x C_s satisfy the expected coefficient
    identities between neighbours under right multiplication by s."""
    _passed(results, "product-recursion-identities")


def test_self_duality_and_full_support(results):
    """Every sheaf character is bar-invariant and supported on the whole
    interval below its top element."""
    _passed(results, "self-duality-and-support")


def test_wall_crossing_characters(results):
    """The wall-crossing character assembled from pair costalks equals the
    sheaf character multiplied by the generator's basis element."""
    _passed(results, "wall-crossing-characters")


def test_local_rank_identities_and_flabbiness(results):
    """At every vertex: the local kernel has the predicted graded rank,
    stalk and costalk generators mirror each other, restriction onto the
    open part is surjective and section dimensions are additive."""
    _passed(results, "local-ranks-and-flabbiness")


def test_structure_algebra_membership_splits_and_decompositions(results):
    """Seeded random trials: sigma images satisfy the edge congruences,
    invariant splittings round-trip, and scrambled edge-algebra modules
    decompose into the summands they were built from."""
    _passed(results, "structure-algebra-suite")


def test_graph_sanity_and_the_edge_bound(results):
    """Every graph in scope passes the structural re-check and has at
    least corank-many upward edges at each vertex."""
    _passed(results, "graph-sanity-and-edge-bound")


def test_pair_modules_have_no_upper_line_summand(results):
    """Pair costalk modules over one edge's algebra decompose without any
    upper-vertex line summand."""
    _passed(results, "pair-module-decomposition")


def test_quotient_lifts_have_positive_self_dual_expansions(results):
    """Sheaves built on quotient graphs, lifted to the regular graph, have
    bar-invariant characters with nonnegative self-dual coefficients."""
    _passed(results, "quotient-lift-positivity")
