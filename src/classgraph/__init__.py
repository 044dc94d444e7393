"""Common-divisor graphs on p-regular conjugacy classes of finite groups.

A small permutation-group library (exhaustive closure, no stabilizer
chains) plus the graph analysis, structural classification, and batch
verification machinery built on top of it.
"""

from .construct import (ActionSpec, AtlasEntry, GroupSpec, atlas_group,
                        builtin_atlas, cyclic, dihedral, direct_product,
                        elementary_abelian, generalized_quaternion, parse_corpus,
                        semidihedral, semidirect_product, serialize_corpus,
                        symmetric, alternating)
from .classify import (FrobeniusWitness, QuasiFrobeniusWitness, ComplementCase,
                       count_p_regular_classes, is_frobenius, is_quasi_frobenius,
                       pi_class_size_criterion, complement_case)
from .errors import ClassGraphError
from .graph import (ClassGraph, build_graph, coprime_class_span, diameter,
                    is_triangle_free, p_regular_classes, to_dot)
from .perm import (ConjClass, Group, Permutation, center, centralizer,
                   conjugacy_classes, element_order, make_group,
                   parse_cycle_string)
from .structure import (SeriesCertificate, hall_subgroup, is_isomorphic,
                        is_p_separable, is_soluble, normal_subgroups,
                        p_complement, p_core, p_prime_core, quotient, sylow)
from .verify import (VerificationReport, RunSummary, run_corpus, verify_pair)

__version__ = "0.1.0"

__all__ = [
    "ActionSpec", "AtlasEntry", "ClassGraph", "ClassGraphError", "ConjClass",
    "FrobeniusWitness", "Group", "GroupSpec", "Permutation",
    "QuasiFrobeniusWitness", "RunSummary", "SeriesCertificate", "ComplementCase",
    "VerificationReport", "alternating", "atlas_group", "build_graph",
    "builtin_atlas", "center", "centralizer", "conjugacy_classes",
    "coprime_class_span", "count_p_regular_classes", "cyclic", "diameter",
    "dihedral", "direct_product", "element_order", "elementary_abelian",
    "generalized_quaternion", "hall_subgroup", "is_frobenius", "is_isomorphic",
    "is_p_separable", "is_quasi_frobenius",
    "is_soluble", "is_triangle_free", "make_group", "normal_subgroups",
    "p_complement", "p_core", "p_prime_core", "p_regular_classes",
    "parse_corpus", "parse_cycle_string", "pi_class_size_criterion", "quotient",
    "run_corpus", "semidihedral", "semidirect_product", "serialize_corpus",
    "sylow", "symmetric", "complement_case", "to_dot", "verify_pair",
]
