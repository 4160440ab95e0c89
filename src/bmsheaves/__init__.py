"""Canonical sheaves on Bruhat moment graphs, in exact arithmetic.

The package builds Coxeter groups from integer Cartan data, computes the
self-dual basis of the Hecke algebra by two independent routes, runs the
top-down projective-cover construction of the canonical sheaf on the
moment graph of a Bruhat interval, and compares the sheaf's graded
character against that basis.  Everything is exact: integer matrices for
the group, Laurent polynomials over the integers for characters, and
fraction-free integer elimination for the degreewise section spaces.
"""

from .coxeter import (
    CoxeterSystem,
    Element,
    Root,
    bruhat_interval,
    bruhat_leq,
    element_ball,
    load_system,
    make_system,
    multiply,
    normal_form,
    parse_word,
    reflection_root,
    right_descents,
    word_str,
)
from .errors import (
    CapError,
    InconsistencyError,
    InputError,
    NotGradedFreeError,
    RealizationError,
)
from .hecke import HeckeAlgebra, HeckeElt
from .laurent import LaurentPoly
from .momentgraph import (
    Edge,
    MomentGraph,
    ZTuple,
    build_graph,
    check_deodhar,
    check_sanity,
    decompose_ze_module,
    sigma,
    split_invariant,
    to_dot,
    z_contains,
)
from .bmsheaf import (
    BMSheaf,
    Sheaf,
    bm_construct,
    character,
    check_conjecture_72,
    check_prop_71,
    costalk_interval,
    lifted_character,
    pair_ze_module,
    theta_character,
    translate_out,
)
from .presets import PRESETS, preset_system
from .verify import run_suite

__version__ = "0.1.0"
