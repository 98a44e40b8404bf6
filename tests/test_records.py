"""Value semantics of the package's immutable result records."""

import copy
import pickle
import re
from fractions import Fraction as F

import pytest

from succorder import (
    BadDistribution,
    DeletionReport,
    Graph,
    Layer,
    OrderingPolynomial,
    RegularityProfile,
    RegularityWitness,
    SigmaResult,
    delete_decompose,
    mask_of,
)

from conftest import c5_chord

# two argument tuples per record type: the first is used twice, the second differs
CASES = {
    Graph: ((2, (0b10, 0b01)), (3, (0b010, 0b101, 0b010))),
    Layer: ((1, (0b1, 0b10), (0b11, 0b11), (1, 1), 0), (1, (0b1,), (0b11,), (1,), 0)),
    SigmaResult: ((5, 60), (5, 61)),
    OrderingPolynomial: ((3, (6, 2)), (3, (6,))),
    BadDistribution: (((1, 1),), ((2, 0),)),
    RegularityProfile: (((5, 2, 0),), ((4, 1, 0),)),
    RegularityWitness: ((1, 0b1, 2, 0b10, 1), (1, 0b1, 2, 0b100, 1)),
    DeletionReport: (
        (0b1, OrderingPolynomial(2, (2, 1)), OrderingPolynomial(1, (1,)), (0,), (1, 0)),
        (0b1, OrderingPolynomial(2, (2, 1)), OrderingPolynomial(1, (1,)), (0,), (2, 0)),
    ),
}
FIELDS = {
    Graph: ("n", "adj"),
    Layer: ("k", "sets", "nbhds", "counts", "weight"),
    SigmaResult: ("n", "sigma"),
    OrderingPolynomial: ("n", "f_coeffs"),
    BadDistribution: ("counts",),
    RegularityProfile: ("a_seq",),
    RegularityWitness: ("size", "first_set", "first_value", "other_set", "other_value"),
    DeletionReport: ("removed", "p_g", "p_gprime", "r_s_numer", "u_s_numer"),
}
RECORDS = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@RECORDS
def test_equal_fields_compare_equal(cls):
    same, other = CASES[cls]
    assert cls(*same) == cls(*same)
    assert cls(*same) != cls(*other)
    assert cls(*same) != same
    assert same != cls(*same)
    assert hash(cls(*same)) == hash(cls(*same))


@RECORDS
def test_keyword_construction_matches_positional(cls):
    same, _ = CASES[cls]
    record = cls(*same)
    assert cls(**dict(zip(FIELDS[cls], same))) == record
    with pytest.raises(TypeError):
        cls(*same, *same)
    with pytest.raises(TypeError):
        cls(*same[:-1])
    with pytest.raises(TypeError):
        cls(*same, **{FIELDS[cls][0]: same[0]})


@RECORDS
def test_assignment_raises_attribute_error(cls):
    record = cls(*CASES[cls][0])
    field = FIELDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(record, field, 7)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == CASES[cls][0][0]


def test_same_fields_in_another_record_type_differ():
    fields = (3, 6)
    assert SigmaResult(*fields) != OrderingPolynomial(*fields)
    assert RegularityProfile((5, 2, 0)) != ((5, 2, 0),)


def test_derived_views_follow_the_stored_fields():
    # sigma_prime, p_coeffs, alpha, r_s and u_s are computed, so no record can disagree with them
    assert SigmaResult(5, 60).sigma_prime == F(1, 2)
    assert OrderingPolynomial(3, (6, 2)).p_coeffs == (F(1), F(1, 3))
    assert RegularityProfile((5, 2, 0)).alpha == 2
    report = DeletionReport(*CASES[DeletionReport][0])
    assert report.r_s == (F(0),)
    assert report.u_s == (F(1, 2), F(0))
    with pytest.raises(AttributeError):
        report.u_s = (F(1),)
    with pytest.raises(TypeError):
        SigmaResult(5, 61, F(1, 2))
    with pytest.raises(AttributeError):
        SigmaResult(5, 60).sigma_prime = F(1)


def test_graph_is_a_dict_key():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    table = {g: "c5 chord"}
    assert table[c5_chord()] == "c5 chord"
    assert hash(g) == hash(c5_chord())
    assert Graph(2, (0b10, 0b01)) not in table


def test_records_survive_copy_and_pickle():
    g = c5_chord()
    for record in (g, SigmaResult(5, 60), delete_decompose(g, mask_of([4]))):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record


def test_layer_length_counts_its_sets():
    layer = Layer(*CASES[Layer][0])
    assert len(layer) == 2
    assert not Layer(3, (), (), (), 0)


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (0, (), "vertex count must be in [1, 64], got 0"),
        (65, (0,) * 65, "vertex count must be in [1, 64], got 65"),
        (2, (0b10,), "adjacency has 1 rows for 2 vertices"),
        (2, (0b100, 0b000), "adjacency of vertex 0 mentions vertices >= 2"),
        (1, (0b1,), "self-loop at vertex 0"),
        (2, (0b10, 0b00), "asymmetric adjacency between 1 and 0"),
    ],
)
def test_graph_validation_messages(n, adj, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph(n, adj)


@pytest.mark.parametrize(
    "edges, message",
    [([(0, 3)], "edge (0, 3) out of range for n=3"), ([(1, 1)], "self-loop at vertex 1")],
)
def test_from_edges_messages(edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph.from_edges(3, edges)


def test_deletion_report_repr_shows_its_five_fields():
    report = delete_decompose(c5_chord(), mask_of([4]))
    text = repr(report)
    assert text.startswith("DeletionReport(removed=16, p_g=OrderingPolynomial(n=5, ")
    assert text.endswith(f"r_s_numer={report.r_s_numer!r}, u_s_numer={report.u_s_numer!r})")
    fields = ", ".join(f"{name}={getattr(report, name)!r}" for name in FIELDS[DeletionReport])
    assert text == f"DeletionReport({fields})"
    assert repr(SigmaResult(5, 60)) == "SigmaResult(n=5, sigma=60)"
