"""Report pins: SHA-256 digests of the library's output on fixed inputs.

The natural-corpus and graph-sweep corpora come from the benchmark's
``bench/corpus.py``, loaded by path, since the library imports nothing from
``bench/``.  Each test prints its run time (visible with ``pytest -s``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from classgraph.construct import (builtin_atlas, dihedral, direct_product, generalized_quaternion,
                                  group_to_spec, heisenberg3, parse_corpus, serialize_corpus,
                                  symmetric)
from classgraph.graph import build_graph, diameter, is_triangle_free, to_dot
from classgraph.perm import conjugacy_classes
from classgraph.verify import run_corpus

_spec = importlib.util.spec_from_file_location(
    "bench_corpus", Path(__file__).parents[1] / "bench" / "corpus.py")
corpus = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(corpus)


@contextmanager
def timed(what):
    t0 = time.perf_counter()
    yield
    print(f"{what}: {time.perf_counter() - t0:.2f} s")


def test_generators():
    # the corpus records `classgraph atlas --emit` writes, then Q_{2^k} for
    # k = 3..8 and ES27: every point, in order, of every generator
    digest = hashlib.sha256()
    digest.update(serialize_corpus(group_to_spec(entry.group, entry.tags)
                                   for entry in builtin_atlas()).encode())
    for G in [generalized_quaternion(2 ** k) for k in range(3, 9)] + [heisenberg3()]:
        digest.update(serialize_corpus([group_to_spec(G)]).encode())
    assert digest.hexdigest() == "51658de6e41595609fd3ecc9e8a4f57c54a824808f746118ee5baacd29d5b67d"


@pytest.mark.parametrize("jobs", [1, 2])
def test_natural_corpus_reports(jobs):
    # seed 1, passes 0-7, in one process and with two workers
    digest = hashlib.sha256()
    with timed(f"natural-corpus passes 0-7 at jobs={jobs}"):
        for i in range(8):
            groups = [spec.build() for spec in parse_corpus(corpus.natural_corpus(1, i).text)]
            digest.update(run_corpus(groups, jobs=jobs).to_json().encode())
    assert digest.hexdigest() == "776f8b34ac33d86aa990c6a35566bd0aa0de8e8de359448e5bf6683d05d3a14f"


@pytest.mark.parametrize("a, b, expected", [
    # order 1040, 128 classes: reads the class products and coset classes of
    # every member of a large normal-subgroup lattice
    (20, 52, "d06afe7a3d5da0f8289ced56c7d6e5dd6965762ead5a65c0e47140b864cdce89"),
    # order 4664, 392 classes: reads the class centralizer counts of every
    # class, from one walk of the group
    (44, 106, "a0cc97c456abd82548878b6a092710e65be2d1be9127948c68a612b4b153b5eb"),
], ids=["D20xD52", "D44xD106"])
def test_dihedral_product_report(a, b, expected):
    G = direct_product(dihedral(a), dihedral(b))
    with timed(f"run_corpus and to_json on {G.name}"):
        text = run_corpus([G]).to_json()  # at the group's default primes
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_wide_split_product_dot():
    # degree 258, so its classes are read off the factors through 2-byte fields
    G = direct_product(dihedral(510), symmetric(3))
    with timed(f"DOT of {G.name} at p = 3"):
        text = to_dot(build_graph(G, 3))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "423e3dd2c93e82c43238bcfaf9b4f429aab9bc44f7fb417b9d10c74b42a59f91")


def test_graph_sweep_outputs():
    # seed 1, passes 0-5: DOT bytes, triangle-freeness, diameter and class-size sum per query;
    # apart from those, each query's class list (size, element order, representative per class)
    digest, class_digest = hashlib.sha256(), hashlib.sha256()
    with timed("graph-sweep passes 0-5"):
        for i in range(6):
            made = corpus.graph_sweep_corpus(1, i)
            for spec, p in zip(parse_corpus(made.text), made.primes):
                G = spec.build()
                g = build_graph(G, p)
                classes = conjugacy_classes(G)
                class_sum = sum(c.size for c in classes)
                digest.update(f"{spec.name} {p} {is_triangle_free(g)} {diameter(g)} "
                              f"{class_sum}\n".encode())
                digest.update(to_dot(g).encode())
                class_digest.update(f"{spec.name} {p}\n".encode())
                for c in classes:
                    class_digest.update(f"{c.size} {c.element_order} "
                                        f"{c.representative.cycle_string()}\n".encode())
    assert (digest.hexdigest(), class_digest.hexdigest()) == (
        "654bccec8843becee0fc09d973652a6b5ae109a0fb61ef454e18b5928ab2eca1",
        "ac9aa7cf799f4275e0fedc4f6cf1a6e6cb970308b9733d6b535ac4387c6b41df")
