"""Divergent-subgraph lattices, blow-up charts and renormalized integrals
for massless position-space Feynman graphs."""

from .bump import BumpSpec, ShellSpec
from .charts import (AdaptedBasis, AffineExponent, Chart, ChartKernel,
                     adapted_basis, chart_for, enumerate_charts,
                     pullback_exponents)
from .errors import (AdaptedTreeNotFound, GraphError, NotAtMostLogarithmic,
                     NotPrimitiveError, ParseError)
from .graphs import (DivergenceReport, Graph, SpanningTree, Subgraph,
                     a_dim, adapted_spanning_tree, at_most_logarithmic,
                     classify, first_betti, is_primitive, omega,
                     parse_graph)
from .homology import BettiTable, homology_from_atoms, homology_gm_oracle
from .lattice import (BuildingSet, LatticeReport, NestedSet, SubgraphPoset,
                      check_lattice_properties, divergent_lattice,
                      enumerate_nested_sets, irreducibles, is_nested,
                      max_nested_cardinality, maximal_building_set,
                      saturated_poset)
from .mc import MCEstimate, MCParams, coordinate_sampler, mc_integrate
from .renorm import (LocalityReport, RGReport, leading_coefficient,
                     locality_check, pair_renormalized, period,
                     renormalize_fixed, renormalize_ms, rg_check)
from .toy import (TestFunction1D, ToyPairing, standard_bump_1d,
                  toy_pole_coefficient, toy_renormalize)

__version__ = "0.1.0"
