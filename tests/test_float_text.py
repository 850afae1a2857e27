"""The model file's float text against its oracle, ``float.__repr__``.

``float_text.row_texts`` must write every row exactly as joining the
``repr`` of its values would: the array kernel for the values of
1e-4 <= |v| < 1, and ``repr`` itself for any row that holds another value.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steve.float_text import SEP, row_texts

#: Biased exponent field of 2**-14: the range's 14 binary exponents start here.
EXP_LO = 1009


def repr_rows(block):
    return [SEP.join(map(float.__repr__, row)) for row in block.tolist()]


def assert_matches_repr(block):
    got, want = row_texts(block), repr_rows(block)
    bad = [(g, w) for g, w in zip(got, want) if g != w][:3]
    assert len(got) == len(want) and not bad, bad


fast_range = st.floats(1e-4, 1.0, exclude_max=True)
values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), fast_range, fast_range.map(lambda x: -x))


# No shrink phase: shrinking a failing block of up to 300 x 64 values took
# minutes; every example is still generated.
@settings(max_examples=40, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(
    block=arrays(np.float64, st.tuples(st.integers(1, 300), st.integers(1, 64)), elements=values, fill=values),
    seed=st.integers(0, 2**32),
)
def test_any_finite_block(block, seed):
    """Drawn values, among seeded unit-vector entries in the blocks that are large."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(block.shape)
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    mixed = np.where(rng.random(block.shape) < 0.5, block, noise)
    assert_matches_repr(block)
    assert_matches_repr(mixed)


def test_seeded_sweep_of_the_range_binary_exponents():
    """2**20 bit patterns over all 14 exponents and both signs, 2**18 of each mantissa kind."""
    rng = np.random.default_rng(20260425)
    n = 1 << 18
    for kind in ("random", "zero", "low bits", "high bits"):
        frac = rng.integers(0, 1 << 52, size=n, dtype=np.uint64)
        if kind == "zero":  # powers of two: the lower neighbour is half as far away
            frac[:] = 0
        elif kind == "low bits":
            frac &= (1 << 20) - 1
        elif kind == "high bits":
            frac &= ((1 << 20) - 1) << 32
        exponent = rng.integers(EXP_LO, EXP_LO + 14, size=n, dtype=np.uint64)
        sign = rng.integers(0, 2, size=n, dtype=np.uint64)
        bits = sign << 63 | exponent << 52 | frac
        for slab in np.split(bits.view(np.float64).reshape(-1, 16), 64):  # the writer's slab size
            assert_matches_repr(slab)


def test_every_power_of_two_in_the_range():
    # The kernel gives these no interval of their own (see _power_rows).
    powers = np.ldexp(1.0, np.arange(-14, 0))
    assert_matches_repr(np.concatenate([powers, -powers]).reshape(-1, 1))


def test_short_decimals_and_edges():
    values = [j / 10**i for i in range(1, 18) for j in range(1, 1000)]
    values += [1e-4, np.nextafter(1e-4, 0), np.nextafter(1.0, 0), 0.5, 0.1, 2**-14]
    values += [0.0, 1.0, 5e-324, 1e-300, 1e16, 123.456]
    block = np.array(values + [-v for v in values])
    assert_matches_repr(block.reshape(-1, 1))
    assert_matches_repr(block[: block.size // 3 * 3].reshape(-1, 3))


def test_ties_go_to_the_even_digit():
    # j 2**-e has e decimals, the last a 5 for odd j: of 16 or 17 digits, two
    # decimals are often equally near, and repr takes the even one.
    for e in range(17, 21):
        block = (np.arange(1 << 16, 1 << 17) * 2.0**-e).reshape(-1, 16)
        for slab in np.split(block, 8):
            assert_matches_repr(slab)
    assert row_texts(np.array([[0.99268341064453125, 0.94664764404296875]])) == [
        SEP.join(["0.9926834106445312", "0.9466476440429688"])
    ]


def test_only_rows_with_other_values_go_to_repr():
    block = np.full((4, 3), 0.25)
    block[1, 2] = 1.0
    block[3, 0] = -1e-5
    assert_matches_repr(block)
    assert row_texts(block)[0] == SEP.join(["0.25"] * 3)
