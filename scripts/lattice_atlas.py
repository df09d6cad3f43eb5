#!/usr/bin/env python3
"""Print the combinatorial profile of every bundled fixture graph:
divergent lattice size, irreducibles, pole order, Betti table, and
whether the Goresky-MacPherson oracle agrees with the atom table."""

from graphrenorm import fixtures as fx
from graphrenorm.homology import homology_from_atoms, homology_gm_oracle
from graphrenorm.lattice import (divergent_lattice, irreducibles,
                                 max_nested_cardinality,
                                 maximal_building_set)

GRAPHS = {
    "fish": fx.fish(),
    "dunce": fx.dunce_cap(),
    "bubble2": fx.bubble_chain(2),
    "bubble3": fx.bubble_chain(3),
    "ins2": fx.insertion_chain(2),
    "ins3": fx.insertion_chain(3),
    "nm11": fx.two_sided_bubbles(1, 1),
    "nm21": fx.two_sided_bubbles(2, 1),
    "k4": fx.k_complete(4),
}


def main() -> None:
    header = (f"{'graph':<8} {'|D|':>4} {'|I(D)|':>6} {'pole':>4} "
              f"{'oracle':>6}  betti")
    print(header)
    print("-" * len(header))
    for name, graph in GRAPHS.items():
        lattice = divergent_lattice(graph)
        irr = irreducibles(lattice)
        if len(lattice.elements) > 1:
            order = max_nested_cardinality(
                maximal_building_set(lattice)).max_cardinality
        else:
            order = 0
        table = homology_from_atoms(lattice)
        agree = "agree" if homology_gm_oracle(lattice) == table else "DIFFER"
        print(f"{name:<8} {len(lattice.elements):>4} "
              f"{len(irr.members):>6} {order:>4} {agree:>6}  "
              f"{table.as_dict()}")


if __name__ == "__main__":
    main()
