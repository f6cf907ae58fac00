"""Field construction, modulus selection, trace identities, field axioms."""

import ast
import random
from pathlib import Path

import numpy as np
import pytest

import tecc
from tecc.field import FieldCtx, SUPPORTED_DEGREES, is_irreducible, make_ctx, poly_mod

from helpers import get_ctx, loop_field_tables

# Smallest irreducible modulus per degree, frozen from the exhaustive scan.
EXPECTED_MODULI = {
    5: 0b100101,              # x^5 + x^2 + 1
    7: 0b10000011,            # x^7 + x + 1
    9: 0b1000000011,          # x^9 + x + 1
    11: 0b100000000101,       # x^11 + x^2 + 1
    13: 0b10000000011011,     # x^13 + x^4 + x^3 + x + 1
    15: 0b1000000000000011,   # x^15 + x + 1
    17: 0b100000000000001001, # x^17 + x^3 + 1
}


def oracle_irreducible(m: int) -> bool:
    """Independent check: trial-divide by every smaller polynomial of
    positive degree, not just those up to deg/2."""
    deg = m.bit_length() - 1
    return all(poly_mod(m, d) != 0 for d in range(2, 1 << deg) if d.bit_length() >= 2)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_even_degree_rejected(n):
    with pytest.raises(ValueError):
        make_ctx(n)


@pytest.mark.parametrize("n", [1, 3, 19])
def test_out_of_range_degree_rejected(n):
    with pytest.raises(ValueError):
        make_ctx(n)


def test_modulus_is_smallest_irreducible():
    for n in (5, 7, 9):
        ctx = get_ctx(n)
        assert ctx.modulus == EXPECTED_MODULI[n]
        assert oracle_irreducible(ctx.modulus)
        for m in range(1 << n, ctx.modulus):
            if m.bit_length() - 1 == n:
                assert not oracle_irreducible(m)


def test_modulus_pins_all_degrees():
    for n in SUPPORTED_DEGREES:
        assert get_ctx(n).modulus == EXPECTED_MODULI[n]


def test_quintic_scan_details():
    # x^5+1 and x^5+x+1 factor; x^5+x^2+1 is the first irreducible quintic
    assert not is_irreducible(0b100001)
    assert not is_irreducible(0b100011)
    assert is_irreducible(0b100101)


def test_trace_balancedness_n5():
    ctx = get_ctx(5)
    assert int(ctx.trace_table.sum()) == 16
    assert int(ctx.trace_table[0]) == 0
    assert int(ctx.trace_table[1]) == 1


def test_trace_table_matches_power_sums_everywhere():
    # Tr(x) = x + x^2 + ... + x^(2^(n-1)), exhaustively for every degree
    for n in SUPPORTED_DEGREES:
        ctx = get_ctx(n)
        xs = np.arange(ctx.order, dtype=np.int64)
        term = xs.copy()
        acc = xs.copy()
        for _ in range(n - 1):
            term = ctx.mul_array(term, term)
            acc ^= term
        assert set(np.unique(acc).tolist()) <= {0, 1}
        assert (acc.astype(np.uint8) == ctx.trace_table).all()


@pytest.mark.parametrize("n", SUPPORTED_DEGREES)
def test_doubled_tables_match_the_mul_raw_loop(n):
    # exp is filled by doubling, exp[i + 2^j] = exp[i] * g^(2^j); the oracle
    # walks g^i one raw product at a time
    ctx = get_ctx(n)
    exp, log, trace = loop_field_tables(ctx)
    assert np.array_equal(ctx._exp_np, exp)
    assert np.array_equal(ctx._log_np, log)
    assert np.array_equal(ctx.trace_table, trace)
    assert ctx._exp == exp[: 2 * ctx.group_order].tolist()
    assert ctx._log == log.tolist()


def test_trace_basis_values_against_raw_arithmetic():
    # the basis traces feeding the table come out of raw carryless products
    for n in (5, 7, 9):
        ctx = get_ctx(n)
        for j in range(n):
            assert int(ctx.trace_table[1 << j]) == ctx._trace_powersum(1 << j)


def test_trace_linearity_and_frobenius_invariance():
    ctx = get_ctx(7)
    rng = random.Random(2024)
    for _ in range(5000):
        x, y = rng.randrange(128), rng.randrange(128)
        tr = ctx.trace_table
        assert int(tr[x ^ y]) == int(tr[x]) ^ int(tr[y])
        assert int(tr[ctx.pow(x, 2)]) == int(tr[x])


def test_field_axioms_random_triples():
    for n in SUPPORTED_DEGREES:
        ctx = get_ctx(n)
        rng = random.Random(n)
        for _ in range(10_000):
            x = rng.randrange(ctx.order)
            y = rng.randrange(ctx.order)
            z = rng.randrange(ctx.order)
            assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
            assert ctx.mul(x, y ^ z) == ctx.mul(x, y) ^ ctx.mul(x, z)
        for _ in range(200):
            x = rng.randrange(1, ctx.order)
            assert ctx.mul(x, ctx.pow(x, ctx.order - 2)) == 1


def test_table_multiply_agrees_with_raw_multiply():
    for n in (5, 9, 13):
        ctx = get_ctx(n)
        rng = random.Random(n + 100)
        for _ in range(3000):
            x, y = rng.randrange(ctx.order), rng.randrange(ctx.order)
            assert ctx.mul(x, y) == ctx._mul_raw(x, y)
    # the broadcasting array multiply, exhaustively at n = 5, zeros included
    ctx = get_ctx(5)
    xs = np.arange(ctx.order)
    table = ctx.mul_array(xs[:, None], xs)
    assert table.tolist() == [[ctx._mul_raw(x, y) for y in range(32)] for x in range(32)]
    assert ctx.mul_array(7, xs).tolist() == table[7].tolist()
    assert int(ctx.mul_array(0, 5)) == 0


def test_frobenius_array_matches_scalar_exhaustive_n5():
    ctx = get_ctx(5)
    xs = np.arange(ctx.order)
    for k in range(-ctx.n, ctx.n + 1):
        assert ctx.frobenius_array(xs, k).tolist() == [ctx.frobenius(x, k) for x in xs.tolist()]
    shifts = np.arange(-ctx.n, ctx.n + 1)
    table = ctx.frobenius_array(xs[:, None], shifts)
    assert table.shape == (ctx.order, shifts.size)
    assert table[:, 3].tolist() == ctx.frobenius_array(xs, shifts[3]).tolist()
    assert int(ctx.frobenius_array(0, 2)) == 0


def test_pow_array_and_log_match_scalar_exhaustive_n5():
    ctx = get_ctx(5)
    xs = np.arange(ctx.order)
    es = np.arange(2 * ctx.order)
    table = ctx.pow_array(xs[:, None], es)
    assert table.tolist() == [[ctx.pow(x, e) for e in es.tolist()] for x in xs.tolist()]
    assert int(ctx.pow_array(0, 0)) == 1 and int(ctx.pow_array(0, 3)) == 0
    with pytest.raises(ValueError):
        ctx.pow_array(xs, -1)
    for i in range(ctx.group_order):
        assert ctx.log(ctx.pow(ctx.generator, i)) == i
    with pytest.raises(ValueError):
        ctx.log(0)


def test_multiplicative_identity_and_alpha_products():
    ctx = get_ctx(5)
    for x in range(32):
        assert ctx.mul(x, 1) == x
    assert ctx.mul(2, 2) == 4          # alpha * alpha = alpha^2
    assert ctx.pow(2, 3) == 8          # alpha^3, no reduction below degree 5


def test_pow_lagrange_and_zero_rules():
    for n in (5, 7):
        ctx = get_ctx(n)
        for x in range(1, ctx.order):
            assert ctx.pow(x, ctx.order - 1) == 1
            assert ctx.pow(x, 0) == 1
        assert ctx.pow(0, 3) == 0
        with pytest.raises(ValueError):
            ctx.pow(3, -1)


def test_pow_reduces_huge_exponents():
    ctx = get_ctx(5)
    e = (1 << 28) - (1 << 21) + (1 << 14) - (1 << 7) + 1
    for x in range(32):
        assert ctx.pow(x, e) == ctx.pow(x, e % 31)


def test_square_three_ways():
    for n in (5, 7):
        ctx = get_ctx(n)
        for x in range(ctx.order):
            assert ctx.pow(x, 2) == ctx.mul(x, x) == ctx.frobenius(x, 1)


def test_frobenius_identities():
    ctx = get_ctx(7)
    rng = random.Random(5)
    for x in range(128):
        assert ctx.frobenius(x, 0) == x
        assert ctx.frobenius(x, ctx.n) == x
    for _ in range(2000):
        x, y = rng.randrange(128), rng.randrange(128)
        k = rng.randrange(-20, 20)
        assert ctx.frobenius(ctx.frobenius(x, -k), k) == x
        assert ctx.frobenius(x ^ y, k) == ctx.frobenius(x, k) ^ ctx.frobenius(y, k)


def test_context_repr_and_ranges():
    ctx = get_ctx(5)
    assert ctx.order == 32
    assert ctx.group_order == 31
    assert "n=5" in repr(ctx)


def test_make_ctx_equivalent_to_constructor():
    assert make_ctx(5).modulus == FieldCtx(5).modulus


def test_no_module_reads_private_fieldctx_attributes():
    # FieldCtx's tables stay behind its public accessors: no module but
    # field.py may read a private attribute or method that FieldCtx defines.
    src = Path(tecc.__file__).parent
    field_tree = ast.parse((src / "field.py").read_text())
    cls = next(node for node in field_tree.body
               if isinstance(node, ast.ClassDef) and node.name == "FieldCtx")
    private = {node.attr for node in ast.walk(cls)
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and not node.attr.startswith("__")}
    assert {"_log_np", "_exp_np", "_mul_raw"} <= private
    offenders = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(src.glob("*.py")) if path.name != "field.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert offenders == []
