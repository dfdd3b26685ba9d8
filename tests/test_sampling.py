"""Sample streams: determinism, group membership and the pinned values.

The first samples of `mobius_det1_matrix` and `symplectic` are pinned in
golden/sample_values.json, since a generator that drew other matrices would
still pass every suite report.  Regenerate it, after checking that a change
of the streams is meant:
    PYTHONPATH=src python tests/test_sampling.py
"""

import json
from pathlib import Path

from moyalquot.moyal import SymplecticSpace
from moyalquot.sampling import SampleStream
from oracles import form_pullback, omega_matrix

SAMPLE_VALUES = Path(__file__).parent / "golden" / "sample_values.json"
MOBIUS_LABELS = ("mobius", "1:lemma1:equivariance", "7:lemma1:equivariance")
SYMPLECTIC_SPACES = {
    2: ("x", "y"),
    4: ("x1", "y1", "x2", "y2"),
    6: ("x1", "y1", "x2", "y2", "x3", "y3"),
}


def test_streams_are_deterministic():
    a = SampleStream("42:case")
    b = SampleStream("42:case")
    for _ in range(10):
        assert a.polynomial(("x", "y"), 3) == b.polynomial(("x", "y"), 3)
        assert a.mobius_det1_matrix() == b.mobius_det1_matrix()
        assert a.permutation(4) == b.permutation(4)


def test_different_labels_differ():
    xs = [SampleStream(f"seed:{k}").polynomial(("x", "y"), 3) for k in range(6)]
    assert len({str(p) for p in xs}) > 1


def test_polynomial_degree_bound():
    s = SampleStream("degree-bound")
    for _ in range(50):
        p = s.polynomial(("x", "y", "z"), 3)
        assert p.total_degree() <= 3


def test_even_polynomials_are_even():
    s = SampleStream("even")
    for _ in range(30):
        p = s.even_polynomial(("x", "y"), 4)
        assert all(sum(exp) % 2 == 0 for exp in p.terms)


def test_mobius_samples_have_det_one():
    s = SampleStream("mobius")
    for _ in range(30):
        (a, b), (c, d) = s.mobius_det1_matrix()
        assert (a * d - b * c).is_one()


def test_symplectic_samples_preserve_form():
    for dim, vs in SYMPLECTIC_SPACES.items():
        space = SymplecticSpace.standard(vs)
        s = SampleStream(f"symplectic-{dim}")
        for _ in range(20):
            g = s.symplectic(space)
            assert form_pullback(g.matrix, omega_matrix(space)) == omega_matrix(space)


def test_rational_function_monomial_denominator():
    s = SampleStream("rational-monomial")
    for _ in range(20):
        r = s.rational_function(("x", "y"), 2, 2, monomial_den=True)
        assert len(r.den.terms) == 1


def _text(matrix) -> list:
    return [", ".join(str(entry) for entry in row) for row in matrix]


def drawn_sample_values() -> dict:
    """The first 30 samples of each pinned generator, as entry texts."""
    mobius = {}
    for label in MOBIUS_LABELS:
        s = SampleStream(label)
        mobius[label] = [_text(s.mobius_det1_matrix()) for _ in range(30)]
    symplectic = {}
    for dim in (2, 4):
        space = SymplecticSpace.standard(SYMPLECTIC_SPACES[dim])
        s = SampleStream(f"symplectic-{dim}")
        symplectic[str(dim)] = [_text(s.symplectic(space).matrix) for _ in range(30)]
    return {"mobius_det1_matrix": mobius, "symplectic": symplectic}


def test_drawn_samples_match_the_pinned_values():
    assert drawn_sample_values() == json.loads(SAMPLE_VALUES.read_text())


if __name__ == "__main__":
    SAMPLE_VALUES.write_text(json.dumps(drawn_sample_values(), indent=1) + "\n")
