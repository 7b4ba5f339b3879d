import json
import operator
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin.algebra import (
    AUXILIARY_SETS,
    COMPONENT_CAP,
    VARIABLE_SETS,
    Family,
    GeneratorId,
    GrassmannElement,
    ONE,
    Parity,
    ZERO,
    aux,
    element_from_json,
    element_to_json,
    eta,
    gen,
    grassmann_exp,
    increment,
    monomial,
    multi_index,
    scalar,
    substitute,
    _add_into,
    _canonical_bits,
    _distance,
    _odd_images,
    _substitute_odd,
)
from berezin.verify import random_element

E1, E2, E3, E4 = (gen(eta(i)) for i in range(1, 5))


def test_generator_order_is_lexicographic():
    ids = [aux(1), increment(2, 1), eta(1), increment(1, 3), eta(2, 1)]
    ordered = sorted(ids)
    assert ordered == [eta(1), eta(2, 1), aux(1), increment(1, 3), increment(2, 1)]


def test_product_of_distinct_generators_is_canonical():
    assert E1 * E2 == monomial((eta(1), eta(2)))


def test_square_of_a_generator_vanishes():
    assert (E1 * E1).is_zero()


def test_swapping_odd_generators_flips_the_sign():
    assert E2 * E1 == -(E1 * E2)


def test_mixed_block_products_count_crossings():
    d = gen(increment(1, 1))
    assert (d * E1) == -(E1 * d)  # increments sort after plain variables
    assert (E1 * d * E2) == -(E1 * E2 * d)


def test_norm_sums_coefficient_magnitudes():
    assert (1 + 2 * E1).norm() == pytest.approx(3.0)
    assert ZERO.norm() == 0.0


def test_parity_classification():
    assert (E1 * E2).parity() is Parity.EVEN
    assert (E1 + E1 * E2 * E3).parity() is Parity.ODD
    assert (1 + E1).parity() is Parity.MIXED
    assert ZERO.parity() is Parity.EVEN


def test_zero_counts_as_both_parities():
    for parity in (Parity.EVEN, Parity.ODD, Parity.MIXED):
        assert ZERO.has_parity(parity)
    assert (E1 * E2).has_parity(Parity.EVEN) and not (E1 * E2).has_parity(Parity.ODD)
    assert E1.has_parity(Parity.ODD) and not E1.has_parity(Parity.EVEN)
    assert not (1 + E1).has_parity(Parity.EVEN) and not (1 + E1).has_parity(Parity.ODD)


def test_exp_of_zero_is_one():
    assert grassmann_exp(ZERO) == ONE
    assert grassmann_exp(-0.7 * ZERO) is ONE  # a slice weight of a zero potential


def test_exp_of_a_single_even_monomial_truncates():
    assert grassmann_exp(E1 * E2) == 1 + E1 * E2


def test_exp_of_two_commuting_blocks_matches_a_series_oracle():
    argument = E1 * E2 + E3 * E4
    # independent reference: sum the powers directly
    series = ZERO
    power = ONE
    factorial = 1.0
    for k in range(6):
        series = series + power / factorial
        power = power * argument
        factorial *= k + 1
    expected = 1 + E1 * E2 + E3 * E4 + E1 * E2 * E3 * E4
    assert (series - expected).norm() < 1e-15
    assert (grassmann_exp(argument) - expected).norm() < 1e-12


def test_exp_with_constant_part_scales():
    got = grassmann_exp(scalar(0.3) + E1 * E2)
    import math

    want = math.exp(0.3) * (1 + E1 * E2)
    assert (got - want).norm() < 1e-12


def test_exp_rejects_odd_and_mixed_arguments():
    with pytest.raises(ValueError):
        grassmann_exp(E1)
    with pytest.raises(ValueError):
        grassmann_exp(1 + E1)


def test_supercommutativity_on_random_homogeneous_pairs():
    rng = random.Random(11)
    pool = tuple(eta(i) for i in range(1, 7))
    for _ in range(200):
        pa = rng.choice((Parity.EVEN, Parity.ODD))
        pb = rng.choice((Parity.EVEN, Parity.ODD))
        a = random_element(rng, pool, parity=pa)
        b = random_element(rng, pool, parity=pb)
        sign = -1 if (pa is Parity.ODD and pb is Parity.ODD) else 1
        scale = max(1.0, a.norm() * b.norm())
        assert (a * b - sign * (b * a)).norm() <= 1e-12 * scale


def test_associativity_and_distributivity_on_random_triples():
    rng = random.Random(12)
    pool = tuple(eta(i) for i in range(1, 7))
    for _ in range(200):
        a, b, c = (random_element(rng, pool) for _ in range(3))
        scale = max(1.0, a.norm() * b.norm() * c.norm())
        assert ((a * b) * c - a * (b * c)).norm() <= 1e-12 * scale
        assert (a * (b + c) - (a * b + a * c)).norm() <= 1e-12 * scale


def test_odd_elements_square_to_zero():
    rng = random.Random(13)
    pool = tuple(eta(i) for i in range(1, 7))
    for _ in range(200):
        a = random_element(rng, pool, parity=Parity.ODD)
        assert (a * a).norm() <= 1e-12 * max(1.0, a.norm() ** 2)


def test_norm_is_submultiplicative():
    rng = random.Random(14)
    pool = tuple(eta(i) for i in range(1, 7))
    for _ in range(500):
        a = random_element(rng, pool, max_terms=16)
        b = random_element(rng, pool, max_terms=16)
        assert (a * b).norm() <= a.norm() * b.norm() + 1e-12


def test_exp_inverse_within_tolerance():
    rng = random.Random(15)
    pool = tuple(eta(i) for i in range(1, 7))
    for _ in range(50):
        a = random_element(rng, pool, max_terms=4, parity=Parity.EVEN)
        a = a - a.constant
        assert (grassmann_exp(a) * grassmann_exp(-a) - ONE).norm() < 1e-10


def test_exp_turns_sums_of_even_elements_into_products():
    rng = random.Random(17)
    pool = tuple(eta(i) for i in range(1, 7))
    for _ in range(50):
        a = random_element(rng, pool, max_terms=3, parity=Parity.EVEN)
        b = random_element(rng, pool, max_terms=3, parity=Parity.EVEN)
        together = grassmann_exp(a + b)
        apart = grassmann_exp(a) * grassmann_exp(b)
        assert (together - apart).norm() <= 1e-10 * max(1.0, apart.norm())


def test_substitution_is_a_homomorphism_for_odd_images():
    rng = random.Random(16)
    pool = tuple(eta(i) for i in range(1, 5))
    images = {
        eta(i): gen(aux(i, 1)) + 0.5 * gen(aux(i, 2)) * gen(aux(5, 2)) * gen(aux(6, 2))
        for i in range(1, 5)
    }
    for _ in range(50):
        a = random_element(rng, pool)
        b = random_element(rng, pool)
        direct = substitute(a * b, images)
        factored = substitute(a, images) * substitute(b, images)
        assert (direct - factored).norm() < 1e-12


def test_substitution_rejects_even_images():
    with pytest.raises(ValueError):
        substitute(E1, {eta(1): scalar(1.0)})
    with pytest.raises(ValueError):
        substitute(E2, {eta(1): E2, eta(2): E1 * E2 + E3})


def test_scalar_mixing_and_division():
    a = 2 * E1 + 1
    assert a - 1 == 2 * E1
    assert (a / 2).coefficient((eta(1),)) == pytest.approx(1.0)
    assert 1 + E1 == E1 + 1


def test_only_exact_zeros_are_dropped():
    assert (E1 * 1e-15).coefficient((eta(1),)) == 1e-15
    assert (E1 * 5e-324).coefficient((eta(1),)) == 5e-324
    assert (0.1 * E1 + 0.2 * E1 - 0.3 * E1).coefficient((eta(1),)) == 0.1 + 0.2 - 0.3  # round-off is kept
    assert (0.5 * E1 - 0.5 * E1).is_zero()
    assert list((E1 + E2 - E1).items()) == list(E2.items())


def test_a_product_that_underflows_to_zero_is_dropped():
    assert ((1e-200 * E1) * (1e-200 * E2)).is_zero()
    assert (1e-200 * E1 * 1e-200).is_zero()


INF, NAN = float("inf"), float("nan")
K1, K2 = multi_index((eta(1),)), multi_index((eta(2),))


@pytest.mark.parametrize(
    "build",
    (
        lambda: GrassmannElement({0: NAN}),
        lambda: E1 * NAN,
        lambda: scalar(INF) + scalar(-INF),
        lambda: _add_into({}, {1: complex(INF, 0.0)}, 0j),
        lambda: _distance(scalar(INF), scalar(INF)),
        lambda: substitute(GrassmannElement({K1: INF}), {eta(1): E2}),
        lambda: substitute(GrassmannElement({K1: 1e308, K2: INF}), {eta(1): -1e308 * E2}),
        lambda: substitute(GrassmannElement({K2: INF, K1: 1e308}), {eta(1): -1e308 * E2}),
    ),
    ids=(
        "init", "adopt", "sum", "scaled-addend", "distance",
        "substitute-image-term", "substitute-kept-term", "substitute-image-sum",
    ),
)
def test_a_nan_coefficient_is_refused_where_the_prune_would_drop_it(build):
    # abs(nan) > 0 is False, so a keep test that only compared would drop the term without a word.
    with pytest.raises(ValueError, match=r"non-finite coefficient \(?nan"):
        build()


def test_an_infinite_coefficient_passes_the_prune():
    assert (E1 * INF).coefficient((eta(1),)).real == INF


def test_rendering_style():
    el = 3.0 - 1.0j * (E1 * E2)
    assert str(el) == "3.0 - 1.0i·η[1]η[2]"
    assert str(ZERO) == "0"
    assert str(E1 * INF) == "(inf+nani)·η[1]"  # complex * float makes inf+nanj


def test_json_round_trip_is_lossless():
    el = 3.0 - 1.0j * (E1 * E2) + 0.25 * gen(increment(3, 1)) * gen(aux(2))
    data = element_to_json(el)
    assert json.loads(json.dumps(data)) == data
    assert element_from_json(data) == el


def test_serialization_matches_the_golden_file():
    import pathlib

    golden = json.loads(
        (pathlib.Path(__file__).parent / "data" / "element_roundtrip.json").read_text()
    )
    el = (
        3.0
        - 1.0j * (E1 * E2)
        + (0.5 + 0.25j) * (gen(increment(2, 1)) * gen(increment(2, 2)))
        + 2.0 * gen(aux(1)) * gen(eta(1, 1))
    )
    assert element_to_json(el) == golden
    assert element_from_json(golden) == el


def test_coefficient_lookup_and_scalar_value():
    el = 2.5 * (E1 * E2) + 4
    assert el.coefficient((eta(1), eta(2))) == pytest.approx(2.5)
    assert el.constant == pytest.approx(4.0)
    with pytest.raises(ValueError):
        el.scalar_value()
    assert scalar(2j).scalar_value() == 2j


def test_generators_listing():
    el = E1 * E2 + gen(aux(1))
    assert el.generators() == (eta(1), eta(2), aux(1))


def test_repeated_generator_in_monomial_rejected():
    with pytest.raises(ValueError):
        monomial((eta(1), eta(1)))


def test_generator_id_fields():
    g = GeneratorId(Family.INCREMENT, 4, 2)
    assert g == increment(4, 2)
    assert (g.family, g.slice, g.component) == (Family.INCREMENT, 4, 2)


def _reference_monomial_product(gens_a, gens_b):
    # positional inversion count on explicit generator tuples, independent
    # of the bit layout
    merged = list(gens_a) + list(gens_b)
    if len(set(merged)) != len(merged):
        return None
    inversions = sum(
        1
        for i in range(len(merged))
        for j in range(i + 1, len(merged))
        if merged[i] > merged[j]
    )
    return tuple(sorted(merged)), (-1) ** inversions


# -- the int layout: caps, pinned text, and the algebra laws as properties --


def test_generators_beyond_the_block_caps_are_rejected():
    assert gen(eta(COMPONENT_CAP, VARIABLE_SETS - 1)).generators() == (eta(8, 3),)
    for g in (eta(9), increment(3, 9), aux(9, 2)):
        with pytest.raises(ValueError, match="capped at 8"):
            gen(g)
    with pytest.raises(ValueError, match="capped at 4"):
        gen(eta(1, 4))
    with pytest.raises(ValueError, match="capped at 4"):
        monomial((eta(1), eta(2, 7)))
    assert gen(aux(COMPONENT_CAP, AUXILIARY_SETS - 1)).generators() == (aux(8, 15),)
    with pytest.raises(ValueError, match="capped at 16"):
        gen(aux(1, 16))
    with pytest.raises(ValueError, match="capped at 16"):
        monomial((eta(1), aux(1, 16)))


@pytest.mark.parametrize("family", [7, -1])
def test_generators_of_an_unknown_family_are_rejected(family):
    with pytest.raises(ValueError, match=f"unknown generator family {family}$"):
        gen(GeneratorId(family, 0, 1))
    with pytest.raises(ValueError, match=f"unknown generator family {family}$"):
        monomial((eta(1), GeneratorId(family, 0, 1)))


def test_serialized_keys_out_of_canonical_order_are_refused():
    # η[2]·η[1] is -η[1]η[2]: reading the key as sorted would flip the sign.
    with pytest.raises(ValueError, match="'v0.2 v0.1'.*canonical order"):
        element_from_json({"v0.2 v0.1": [1, 0]})
    # Auxiliaries come before increments.
    with pytest.raises(ValueError, match="'i3.1 a0.1'.*canonical order"):
        element_from_json({"1": [1.0, 0.0], "i3.1 a0.1": [1.0, 0.0]})
    assert element_from_json({"a0.1 i3.1": [1.0, 0.0]}) == monomial((aux(1), increment(3, 1)))


@pytest.mark.parametrize(
    "key", ["x0.1", "v0.1 x1.2", "v0", "v0.1.2", "v-1.1", "i2 .1", "", "v0.1  v0.2", "v00.1", "v0.01"]
)
def test_serialized_keys_with_malformed_codes_are_refused(key):
    with pytest.raises(ValueError, match=f"serialized key {key!r}"):
        element_from_json({key: [1.0, 0.0]})


@pytest.mark.parametrize("value", [[1.0], [1.0, 0.0, 0.0], "10", [1.0, "0"], [True, 0.0], 1.0, {"re": 1.0, "im": 0.0}])
def test_serialized_values_that_are_not_pairs_are_refused(value):
    with pytest.raises(ValueError, match="'v0.1'.*not a \\[re, im\\] pair"):
        element_from_json({"v0.1": value})


def test_serialized_elements_beyond_the_block_caps_are_refused():
    with pytest.raises(ValueError, match="capped at 8"):
        element_from_json({"v0.1 i2.9": [1.0, 0.0]})
    with pytest.raises(ValueError, match="capped at 4"):
        element_from_json({"1": [0.5, 0.0], "v5.1": [1.0, 0.0]})
    with pytest.raises(ValueError, match="capped at 16"):
        element_from_json({"a16.1": [1.0, 0.0]})


def test_mixed_family_product_in_noncanonical_order_keeps_its_text_and_sign():
    mixed = (
        (2 - 1j) * gen(aux(2, 1)) * gen(increment(70, 1)) * gen(eta(1)) * gen(aux(1)) * gen(increment(3, 2))
        - 0.5 * gen(aux(1, 15)) * gen(increment(66, 8)) * gen(eta(8, 3))
        + 0.25j * gen(increment(1, 1)) * gen(aux(1))
    )
    assert str(mixed) == (
        "-0.25i·θ[1]δ[1;1] - 0.5·η[3;8]θ[15;1]δ[66;8] + (-2.0+1.0i)·η[1]θ[1]θ[1;2]δ[3;2]δ[70;1]"
    )
    assert mixed.coefficient((eta(1), aux(1), aux(2, 1), increment(3, 2), increment(70, 1))) == -2 + 1j
    assert mixed.coefficient((eta(8, 3), aux(1, 15), increment(66, 8))) == -0.5


# Every family, increment slices on both sides of 64, auxiliary sets up to
# the last one, and every component up to the cap.
GENERATORS = st.one_of(
    st.builds(eta, st.integers(1, COMPONENT_CAP), st.integers(0, VARIABLE_SETS - 1)),
    st.builds(increment, st.sampled_from((0, 1, 2, 5, 63, 64, 65, 200)), st.integers(1, COMPONENT_CAP)),
    st.builds(aux, st.integers(1, COMPONENT_CAP), st.sampled_from((0, 1, 2, 5, 14, AUXILIARY_SETS - 1))),
)
# A small mixed pool, so that random products share generators and vanish.
POOL = (eta(1), eta(2), eta(3, 3), increment(1, 1), increment(1, 2), increment(65, 8), aux(1), aux(2), aux(1, 15))
# Small integer coefficients keep every product and sum exact, so the laws hold exactly.
COEFFICIENTS = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
LAWS = settings(derandomize=True, deadline=None, max_examples=150)


def _element(terms: dict) -> GrassmannElement:
    return sum((monomial(gens, c) for gens, c in terms.items()), ZERO)


def _elements(degree_parity: int | None = None):
    monomials = st.lists(st.sampled_from(POOL), max_size=4, unique=True).map(lambda g: tuple(sorted(g)))
    if degree_parity is not None:
        monomials = monomials.filter(lambda g: len(g) % 2 == degree_parity)
    return st.dictionaries(monomials, COEFFICIENTS, max_size=4).map(_element)


@LAWS
@given(st.lists(GENERATORS, max_size=8, unique=True))
def test_a_product_of_generators_in_any_order_has_the_sign_of_its_sorting(gens):
    product = ONE
    for g in gens:
        product = product * gen(g)
    assert product == monomial(*_reference_monomial_product(gens, ()))


@settings(LAWS, max_examples=500)
@given(st.lists(GENERATORS, min_size=1, max_size=10, unique=True), st.data())
def test_monomial_products_match_a_positional_sign_oracle(pool, data):
    # Both factors draw from one pool, so shared generators (zero products) occur.
    factor = st.lists(st.sampled_from(pool), max_size=6, unique=True).map(lambda g: tuple(sorted(g)))
    left, right = data.draw(factor), data.draw(factor)
    product = monomial(left) * monomial(right)
    reference = _reference_monomial_product(left, right)
    if reference is None:
        assert product.is_zero()
    else:
        sorted_gens, sign = reference
        assert product == monomial(sorted_gens, sign)


def test_every_disjoint_product_over_eta1_to_eta8_has_the_positional_sign():
    # Products read the sign mask of a left key below 256 (variable set 0)
    # from a table, and the random oracle above seldom draws a given one of
    # those keys as a left factor: check every left key against every
    # right key it does not meet, over η1…η8 and the first generator past
    # them, η'1 (2·3^8 pairs).
    gens = tuple(eta(j) for j in range(1, COMPONENT_CAP + 1)) + (eta(1, 1),)
    subsets = [tuple(g for j, g in enumerate(gens) if k >> j & 1) for k in range(512)]
    elements = [monomial(subset) for subset in subsets]
    for ka in range(256):
        free = 511 & ~ka
        kb = free
        while True:
            _, sign = _reference_monomial_product(subsets[ka], subsets[kb])
            assert list((elements[ka] * elements[kb]).items()) == [(ka | kb, complex(sign))], (ka, kb)
            if not kb:
                break
            kb = (kb - 1) & free


@LAWS
@given(_elements(), _elements(), _elements())
def test_products_are_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@LAWS
@given(st.integers(0, 1), st.integers(0, 1), st.data())
def test_homogeneous_elements_commute_up_to_the_graded_sign(pa, pb, data):
    a, b = data.draw(_elements(pa)), data.draw(_elements(pb))
    assert a * b == (-1) ** (pa * pb) * (b * a)


@settings(LAWS, max_examples=300)
@given(st.lists(GENERATORS, min_size=1, max_size=8, unique=True), st.data())
def test_derivative_and_integral_signs_match_position_counting(gens, data):
    from berezin.calculus import berezin_integrate, derivative_element

    gens = tuple(sorted(gens))
    position = data.draw(st.integers(0, len(gens) - 1))
    reduced = monomial(gens[:position] + gens[position + 1 :])
    assert derivative_element(monomial(gens), gens[position]) == (-1) ** position * reduced
    assert berezin_integrate(monomial(gens), (gens[position],)) == (-1) ** (len(gens) - position - 1) * reduced


# Sums and substitutions against the rules they must keep, on keys that mix
# every family, with an increment slice far above the last auxiliary set.
MIXED_POOL = POOL + (increment(1101, 1), aux(2, 15))
MIXED_KEYS = st.lists(st.sampled_from(MIXED_POOL), max_size=4, unique=True).map(multi_index)
# Parts of every size, of the size of unit parts' round-off, and zeros of
# both signs.
PARTS = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(5e-15, 3e-14),
    st.floats(-3e-14, -5e-15),
    st.sampled_from((0.0, -0.0)),
)
COEFFS = st.builds(complex, PARTS, PARTS)


def _sum_rule(a: GrassmannElement, b: GrassmannElement, op) -> GrassmannElement:
    """Copy a, combine every term of b into it, then drop every zero term."""
    data = dict(a.items())
    for mi, c in b.items():
        data[mi] = op(data.get(mi, 0j), c)
    return GrassmannElement({mi: c for mi, c in data.items() if abs(c) > 0})


@st.composite
def near_cancelling_operands(draw):
    """Two elements whose shared terms often cancel, exactly or to within
    about 1e-14."""
    a = draw(st.dictionaries(MIXED_KEYS, COEFFS, max_size=6))
    b = draw(st.dictionaries(MIXED_KEYS, COEFFS, max_size=4))
    for mi, c in a.items():
        if draw(st.booleans()):
            b[mi] = draw(st.sampled_from((c, -c))) + draw(COEFFS)
    return GrassmannElement(a), GrassmannElement(b)


@settings(LAWS, max_examples=300)
@given(near_cancelling_operands())
def test_sums_and_differences_prune_as_a_copy_add_and_prune_rule(operands):
    a, b = operands
    for got, want in ((a + b, _sum_rule(a, b, operator.add)), (a - b, _sum_rule(a, b, operator.sub))):
        assert list(got.items()) == list(want.items())
        assert repr([c for _, c in got.items()]) == repr([c for _, c in want.items()])  # signs of zero too


def test_numpy_scalars_leave_python_complex_coefficients():
    x = gen(eta(1)) + 0.5 * gen(eta(2))
    for got, want in ((x * np.complex128(2j), x * 2j), (x / np.complex128(4.0), x / 4.0), (x * np.float64(3.0), x * 3.0)):
        assert [type(c) for _, c in got.items()] == [complex, complex]
        assert repr(list(got.items())) == repr(list(want.items()))


# Factors that keep, shrink, flip or rotate a term; 1e-310 takes a part of
# 1e-14 to exactly zero.
FACTORS = st.sampled_from((1.0, -1.0, 0.5, 2.0, 1e-3, -1e-13, 1j, -0.7 + 0.2j, 3, 1e-310))


@settings(LAWS)
@given(near_cancelling_operands(), near_cancelling_operands(), FACTORS, st.booleans(), st.data())
def test_in_place_sums_are_the_chain_of_sums_and_differences(first, second, factor, start, data):
    """``_add_into`` keeps ``acc + x``, ``acc + factor * x`` and, on the
    negated addend, ``acc - x``: the same keys in the same order, and the
    same coefficients down to the signs of zero.  Cancelling operands drop
    keys, and later steps add them again."""
    addends = first + second
    acc = first[0] if start else ZERO
    terms = dict(acc.items())
    steps = data.draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(("+", "*", "-"))), min_size=1, max_size=8))
    for index, kind in steps:
        x = addends[index]
        if kind == "+":
            acc = acc + x
            _add_into(terms, dict(x.items()))
        elif kind == "*":
            acc = acc + factor * x
            _add_into(terms, dict(x.items()), factor)
        else:
            acc = acc - x
            _add_into(terms, dict((-x).items()))
        assert list(terms.items()) == list(acc.items())
        assert repr(list(terms.values())) == repr([c for _, c in acc.items()])  # signs of zero too


def _substitute_rule(a: GrassmannElement, images: dict) -> GrassmannElement:
    """Each term as the product of its coefficient and the images of its
    generators in ``index_generators`` order, summed term by term."""
    result = ZERO
    for gens, coeff in a.terms():
        term = scalar(coeff)
        for g in gens:
            term = term * images.get(g, gen(g))
            if term.is_zero():
                break
        result = _sum_rule(result, term, operator.add)
    return result


ODD_IMAGES = st.dictionaries(
    st.lists(st.sampled_from(MIXED_POOL), min_size=1, max_size=3, unique=True)
    .filter(lambda g: len(g) % 2)
    .map(multi_index),
    COEFFS,
    max_size=3,
).map(GrassmannElement)


@settings(LAWS, max_examples=200)
@given(
    st.dictionaries(MIXED_KEYS, COEFFS, max_size=8).map(GrassmannElement),
    st.dictionaries(st.sampled_from(MIXED_POOL), ODD_IMAGES, max_size=4),
)
def test_substitution_is_the_product_in_canonical_generator_order(a, images):
    got = substitute(a, images)
    want = _substitute_rule(a, images)
    assert list(got.items()) == list(want.items())
    assert repr([c for _, c in got.items()]) == repr([c for _, c in want.items()])


def test_substitution_prunes_after_each_term_as_a_chain_of_sums():
    # All three terms land on θ[1], summed in term order: about 1.7e-14.
    e1, e2, theta, phi = (multi_index([g]) for g in (eta(1), eta(2), aux(1), aux(2)))
    images = {eta(1): gen(aux(1)), eta(2): gen(aux(1))}
    got = substitute(GrassmannElement({e1: 2e-14, e2: -1.5e-14, theta: 1.2e-14}), images)
    assert repr(list(got.items())) == repr([(theta, (0j + 2e-14) + -1.5e-14 + 1.2e-14)])
    # The first two cancel exactly, so θ[1] is dropped there and the last
    # term adds it again, after φ[2].
    got = substitute(GrassmannElement({e1: 2e-14, phi: 1.0, e2: -2e-14, theta: 1.2e-14}), images)
    assert repr(list(got.items())) == repr([(phi, 1 + 0j), (theta, 1.2e-14 + 0j)])


def _substitute_chain(a: GrassmannElement, images: dict) -> GrassmannElement:
    """``_substitute_odd`` by the product chain alone: every term with a mapped
    generator is the product of its coefficient and each generator's image
    (or the generator) in bit order, every other term is kept as it is, and
    ``_add_into`` sums them in order."""
    mapped = reduce(operator.or_, images, 0)
    data: dict = {}
    for mi, coeff in a.items():
        if not mi & mapped:
            terms = {mi: coeff}
        else:
            term = scalar(coeff)
            for bit in _canonical_bits(mi):
                factor = images.get(bit)
                term = term * (GrassmannElement({bit: 1.0}) if factor is None else factor)
                if term.is_zero():
                    break
            terms = dict(term.items())
        _add_into(data, terms)
    return GrassmannElement._wrap(data)


@st.composite
def substitution_cases(draw):
    """An element and odd images of some of its generators.  Some terms of
    the element sit on keys a one-generator term's image also reaches, with
    a value that cancels the image term's to within about 1e-14, before or
    after it; the images may be empty, and a scale of 1e-300 takes the
    product of two 1e-14 parts to exactly zero."""
    images = draw(st.dictionaries(st.sampled_from(MIXED_POOL), ODD_IMAGES, max_size=4))
    mapped = reduce(operator.or_, map(multi_index, ([g] for g in images)), 0)
    terms = draw(st.dictionaries(MIXED_KEYS, COEFFS, max_size=6))
    scales = st.sampled_from((1.0, -1.0, 1e-13, 3e-14, 1e14, 1e-300))
    for g, image in images.items():
        c = draw(COEFFS) * draw(scales)
        if c == 0:
            continue
        one = {multi_index([g]): c}
        for key, v in image.items():
            if not key & mapped and draw(st.booleans()):
                one[key] = -(0j + (1 * c) * v) + draw(COEFFS)
        items = list(terms.items()) + list(one.items())
        terms = dict(draw(st.permutations(items)))
    return GrassmannElement(terms), images


@settings(LAWS, max_examples=200)
@given(substitution_cases())
def test_one_generator_and_unmapped_terms_sum_as_the_product_chain(case):
    a, images = case
    bits = _odd_images(images)
    got, want = _substitute_odd(a, bits), _substitute_chain(a, bits)
    assert repr(list(got.items())) == repr(list(want.items()))  # key order and signs of zero too


def test_one_generator_terms_keep_the_chain_rounding_on_hand_picked_cases():
    e1, e2, theta, phi = (multi_index([g]) for g in (eta(1), eta(2), aux(1), aux(2)))
    cases = [
        # an image term whose product underflows to zero on a key the sum holds: dropped before the sum
        (GrassmannElement({theta: 1.0, e1: 1e-300}), {e1: GrassmannElement({theta: 1e-30})}),
        # an image part of -0.0 on a new key: the sum makes it 0.0
        (GrassmannElement({e1: 1.0}), {e1: GrassmannElement({theta: complex(-1.0, -0.0)})}),
        # a sum that cancels to zero, then a term that adds the key again
        (
            GrassmannElement({theta: 0.5 + 0.25j, e1: -1.0, e2: 2.0}),
            {e1: GrassmannElement({theta: 0.5 + 0.25j}), e2: GrassmannElement({theta: 1e-3, phi: 1.0})},
        ),
        # an empty image, a mapped-plus-unmapped key and a parameter
        (GrassmannElement({e1: 1.0, e2 | theta: 2.0, phi: 3.0}), {e1: ZERO, e2: GrassmannElement({phi: 1.0})}),
    ]
    for a, images in cases:
        got, want = _substitute_odd(a, images), _substitute_chain(a, images)
        assert repr(list(got.items())) == repr(list(want.items()))
    assert repr(list(_substitute_odd(*cases[1]).items())) == repr([(theta, complex(-1.0, 0.0))])


@LAWS
@given(near_cancelling_operands())
def test_distance_is_the_norm_of_the_difference(operands):
    a, b = operands
    for x, y in ((a, b), (b, a), (a, ZERO), (ZERO, b), (a, a)):
        assert repr(_distance(x, y)) == repr((x - y).norm())


def test_distance_sums_in_the_order_of_the_difference_keys():
    # 2 + 1 + 3 + 9e-14 + 9e-14 rounds to 6.000000000000179, the reverse
    # order of the y-only keys to 6.00000000000018; the shared key cancels
    # to zero and adds nothing.
    keys = [multi_index([g]) for g in MIXED_POOL]
    x = GrassmannElement({keys[0]: 2.0, keys[1]: 0.7})
    y = GrassmannElement({keys[1]: 0.7, keys[2]: 1.0, keys[3]: 3.0, keys[4]: 9e-14, keys[5]: 9e-14})
    assert repr(_distance(x, y)) == repr((x - y).norm())
    assert repr(_distance(y, x)) == repr((y - x).norm())
