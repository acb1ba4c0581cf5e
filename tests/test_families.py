import pytest

from colorlie.algebra import check_axioms, from_matrices
from colorlie.errors import DimensionMismatch
from colorlie.families import (
    SoParams,
    fixture_so4211,
    fixture_so4222,
    so_cartan_hint,
    so_pqrs,
)
from colorlie.grading import ZERO_DEGREE, sign
from colorlie.linalg import SubspaceBasis, graded_commutator
from colorlie.scalars import GQ


def _flat(m):
    out = {}
    for r, row in enumerate(m.rows):
        for c, v in row.items():
            out[r * m.ncols + c] = v
    return out


def test_params_validation():
    with pytest.raises(DimensionMismatch):
        SoParams(-1, 2, 0, 0)
    with pytest.raises(DimensionMismatch):
        SoParams(1, 0, 0, 0)
    assert SoParams(2, 0, 0, 0).total == 2


def test_dimension_matches_so_n():
    for p, q, r, s in [(4, 2, 2, 2), (4, 2, 1, 1), (3, 2, 1, 0), (5, 0, 0, 0)]:
        real = so_pqrs(SoParams(p, q, r, s))
        n = p + q + r + s
        assert len(real.matrices) == n * (n - 1) // 2


def test_block_degrees():
    real = so_pqrs(SoParams(2, 1, 1, 1))
    # diagonal-block matrices have degree (0,0); off-diagonal ones the sum
    expected = {
        "D1[0,1]": (0, 0),
        "O12[0,0]": (0, 1),
        "O13[0,0]": (1, 0),
        "O14[0,0]": (1, 1),
        "O23[0,0]": (1, 1),
        "O24[0,0]": (1, 0),
        "O34[0,0]": (0, 1),
    }
    got = dict(zip(real.labels, real.basis_degrees))
    for label, deg in expected.items():
        assert got[label] == deg


def test_ordinary_so_n_special_case():
    real = so_pqrs(SoParams(4, 0, 0, 0))
    assert all(d == ZERO_DEGREE for d in real.basis_degrees)
    # graded commutator reduces to the ordinary commutator
    for a in range(len(real.matrices)):
        for b in range(len(real.matrices)):
            x, y = real.matrices[a], real.matrices[b]
            eps = sign(real.basis_degrees[a], real.basis_degrees[b])
            assert graded_commutator(x, y, eps) == (x @ y) - (y @ x)
    g = from_matrices(real)
    assert check_axioms(g).ok


def test_so_pqrs_closed_and_valid():
    g = from_matrices(so_pqrs(SoParams(4, 2, 2, 2)))
    assert g.dim == 45
    assert check_axioms(g).ok


def test_fixture_so4222_eigenvectors():
    fx = fixture_so4222()
    real = fx.realization
    hs = [real.matrices[i] for i in fx.cartan_indices]
    for alpha, by_degree in fx.root_table.items():
        for deg, idx in by_degree.items():
            e = real.matrices[idx]
            assert real.basis_degrees[idx] == deg
            for k, h in enumerate(hs):
                expected = (h @ e) - (e @ h)
                assert expected == e.scaled(GQ(alpha[k]))


def test_fixture_so4222_spans_so_pqrs():
    fx = fixture_so4222()
    constructed = so_pqrs(SoParams(4, 2, 2, 2))
    sb = SubspaceBasis()
    for m in constructed.matrices:
        sb.add(_flat(m))
    assert sb.dim == 45
    for m, deg in zip(fx.realization.matrices, fx.realization.basis_degrees):
        assert sb.contains(_flat(m))
    # degrees agree with the block pattern by construction of the realization
    assert fx.realization.block_degrees == constructed.block_degrees


def test_fixture_so4211_zero_part_annihilated():
    fx = fixture_so4211()
    real = fx.realization
    e0 = real.matrices[-1]
    assert real.basis_degrees[-1] == (0, 1)
    for i in fx.cartan_indices:
        h = real.matrices[i]
        assert not ((h @ e0) - (e0 @ h))


def test_fixture_so4211_short_roots_split():
    fx = fixture_so4211()
    short = [a for a in fx.root_table if sum(1 for x in a if x) == 1]
    assert len(short) == 6
    for alpha in short:
        degs = set(fx.root_table[alpha])
        assert degs == {(1, 0), (1, 1)}
    long_roots = [a for a in fx.root_table if sum(1 for x in a if x) == 2]
    assert len(long_roots) == 12


def test_so_cartan_hint_matches_fixture():
    hint = so_cartan_hint(SoParams(4, 2, 2, 2))
    assert len(hint) == 5
    real = so_pqrs(SoParams(4, 2, 2, 2))
    fx = fixture_so4222()
    for k, v in enumerate(hint):
        m = None
        for idx, c in v.items():
            part = real.matrices[idx].scaled(c)
            m = part if m is None else m + part
        assert m == fx.realization.matrices[k]
