"""Draw vectors, dissimilarity, and the inner-product kernel."""

import random
from fractions import Fraction

import pytest

from idstates import DissimilarityValue, DrawVector, PairMatrix, dissimilarity, inner_product

from conftest import random_draw

# known pairs for draws of size 2 over 4 objects
EXAMPLE_PAIRS = [
    ((2, 0, 0, 0), (2, 0, 0, 0), Fraction(0)),
    ((2, 0, 0, 0), (1, 1, 0, 0), Fraction(1, 2)),
    ((2, 0, 0, 0), (0, 2, 0, 0), Fraction(1)),
    ((2, 0, 0, 0), (0, 1, 1, 0), Fraction(1)),
    ((1, 1, 0, 0), (1, 1, 0, 0), Fraction(1, 2)),
    ((1, 1, 0, 0), (1, 0, 1, 0), Fraction(3, 4)),
    ((1, 1, 0, 0), (0, 0, 1, 1), Fraction(1)),
]


@pytest.mark.parametrize("g1,g2,expected", EXAMPLE_PAIRS)
def test_example_pairs(g1, g2, expected):
    assert dissimilarity(g1, g2).value == expected


def test_exact_form_keeps_square_denominator():
    d = dissimilarity((2, 0, 0, 0), (1, 1, 0, 0))
    assert (d.numerator, d.denominator) == (2, 4)
    assert str(d) == "2/4"
    assert float(d) == 0.5


def test_single_kind_draws_have_zero_dissimilarity():
    for k in range(1, 7):
        g = (k,) + (0,) * 3
        assert dissimilarity(g, g).value == 0


def test_zero_only_for_repeated_single_kind():
    # any draw mixing kinds is dissimilar to itself
    for k in range(2, 7):
        for c in range(1, k):
            g = (c, k - c, 0)
            d = dissimilarity(g, g).value
            assert d == 1 - Fraction(c * c + (k - c) * (k - c), k * k)
            assert d > 0


def test_maximal_iff_disjoint_support():
    rng = random.Random(101)
    for _ in range(300):
        k = rng.randrange(1, 5)
        n = rng.randrange(2, 7)
        g1 = random_draw(rng, k, n)
        g2 = random_draw(rng, k, n)
        disjoint = all(a == 0 or b == 0 for a, b in zip(g1, g2))
        assert (dissimilarity(g1, g2).value == 1) == disjoint


def test_symmetry():
    rng = random.Random(202)
    for _ in range(300):
        k = rng.randrange(1, 6)
        n = rng.randrange(1, 7)
        g1 = random_draw(rng, k, n)
        g2 = random_draw(rng, k, n)
        assert dissimilarity(g1, g2) == dissimilarity(g2, g1)


def test_relabel_invariance():
    rng = random.Random(303)
    for _ in range(300):
        k = rng.randrange(1, 6)
        n = rng.randrange(2, 7)
        g1 = random_draw(rng, k, n)
        g2 = random_draw(rng, k, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h1 = tuple(g1[j] for j in perm)
        h2 = tuple(g2[j] for j in perm)
        assert dissimilarity(g1, g2) == dissimilarity(h1, h2)


def test_value_range():
    rng = random.Random(404)
    for _ in range(200):
        k = rng.randrange(1, 6)
        g1 = random_draw(rng, k, 5)
        g2 = random_draw(rng, k, 5)
        d = dissimilarity(g1, g2)
        assert d.denominator == k * k
        assert 0 <= d.numerator <= k * k


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="rows cover different object counts: 2 vs 3"):
        dissimilarity((2, 0), (2, 0, 0))
    with pytest.raises(ValueError, match="rows have different draw sizes: 2 vs 1"):
        dissimilarity((2, 0), (1, 0))


def test_draw_vector_validation():
    with pytest.raises(ValueError):
        DrawVector((1, -1))
    with pytest.raises(ValueError):
        DrawVector((0, 0))
    with pytest.raises(ValueError):
        DrawVector(())
    g = DrawVector((2, 1, 0))
    assert g.draw_size == 3 and g.n_objects == 3


def test_pair_matrix_validation():
    with pytest.raises(ValueError):
        PairMatrix(DrawVector((2, 0)), DrawVector((1, 0)))
    with pytest.raises(ValueError):
        PairMatrix(DrawVector((2, 0)), DrawVector((1, 1, 0)))
    pair = PairMatrix(DrawVector((2, 0)), DrawVector((1, 1)))
    assert pair.columns == ((2, 1), (0, 1))


def test_dissimilarity_value_bounds():
    with pytest.raises(ValueError):
        DissimilarityValue(5, 4)
    with pytest.raises(ValueError):
        DissimilarityValue(-1, 4)
    with pytest.raises(ValueError, match="denominator must be positive"):
        DissimilarityValue(1, 0)


def test_inner_product_examples():
    assert inner_product((1, 0), (1, 0)) == 1
    assert inner_product((Fraction(1, 2), Fraction(1, 2)),
                         (Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)
    # the worked example's similarity values
    assert abs(inner_product((0.8, 0.2), (0.9, 0.1)) - 0.74) < 1e-12
    assert abs(inner_product((0.8, 0.2), (0.8, 0.2)) - 0.68) < 1e-12


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        inner_product((1, 0), (1, 0, 0))
