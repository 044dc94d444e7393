#!/usr/bin/env python3
"""Why class lengths in a Hall subgroup tell you little about the big group.

The affine semilinear group of the field with eight elements, at p = 7,
has an involution whose class has length 3 inside a 7-complement H but
length 7 inside the whole group: neither divides the other.  The ordinary
graph of H is even disconnected while the 7-regular graph of the whole
group is connected.
"""

from classgraph import (atlas_group, build_graph, conjugacy_classes,
                        p_complement)
from classgraph.perm import class_index


def main():
    G = atlas_group("GammaL(1,8)")
    H = p_complement(G, 7)
    print(f"G = {G.name}, |G| = {G.order}; H = 7-complement of order {H.order}")
    print()

    print("classes of H:      size  order")
    for cls in conjugacy_classes(H):
        print(f"                   {cls.size:4d}  {cls.element_order:5d}")
    print()

    for cls in conjugacy_classes(H):
        if cls.element_order == 2 and cls.size == 3:
            big = class_index(G)[cls.representative]
            print(f"an involution with |x^H| = {cls.size} has |x^G| = {big.size}:")
            print("  3 does not divide 7, and 7 does not divide 3.")
            break
    print()

    gH = build_graph(H)
    gG = build_graph(G, 7)
    print(f"graph of H:        {len(gH.vertices)} vertices, "
          f"{len(gH.components)} components (disconnected)")
    print(f"7-regular graph:   {len(gG.vertices)} vertices, "
          f"{len(gG.components)} component (connected)")


if __name__ == "__main__":
    main()
