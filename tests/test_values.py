"""The four value types are frozen: no field can be assigned and no
attribute added, and pickle, copy and deepcopy return an equal value,
so a value crosses a process boundary."""

import copy
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from interlacepoly import (
    BalancedDigraph,
    DoubleOccurrenceWord,
    Graph,
    IntPolynomial,
    interlace_graph,
    interlace_polynomial,
)

# each value type with its fields
VALUES = {
    "graph": (Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)]), ("n", "rows")),
    "polynomial": (IntPolynomial([0, 3, -2, 10**30]), ("coeffs",)),
    "word": (DoubleOccurrenceWord.parse("x y z x z y"), ("symbols", "labels")),
    "digraph": (
        BalancedDigraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (1, 1)], free_loops=2),
        ("order", "arcs", "free_loops", "in_lists", "out_lists"),
    ),
}

COPIERS = {
    **{
        f"pickle-{p}": lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("kind", VALUES)
def test_values_are_frozen(kind):
    value, fields = VALUES[kind]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("copier", COPIERS)
@pytest.mark.parametrize("kind", VALUES)
def test_values_round_trip_through_pickle_and_copy(kind, copier):
    value, fields = VALUES[kind]
    out = COPIERS[copier](value)
    assert type(out) is type(value)
    assert out == value and hash(out) == hash(value)
    assert repr(out) == repr(value) and str(out) == str(value)
    for name in fields:  # the word's labels, the digraph's arc lists too
        assert getattr(out, name) == getattr(value, name)


def test_graphs_go_to_a_worker_and_polynomials_come_back():
    word = DoubleOccurrenceWord.parse("a b c a b c")
    graphs = [VALUES["graph"][0], interlace_graph(word), Graph(0)]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        got = list(pool.map(interlace_polynomial, graphs, timeout=120))
    assert got == [interlace_polynomial(g) for g in graphs]
