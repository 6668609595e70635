import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import random_su2_matrix
from lorentz_harmonics.lie_group import (
    MatrixInvariantError,
    QuadratureGrid,
    SL2CElement,
    SU2Element,
    cartan_decompose,
    epsilon_of,
    haar_quadrature_su2,
    su2_from_euler,
)
from lorentz_harmonics.wigner import SpinLabel, wigner_D


# ------------------------------------------------------------- element types

def test_sl2c_det_invariant():
    with pytest.raises(MatrixInvariantError):
        SL2CElement(np.array([[1.0, 0.0], [0.0, 1.5]]))
    g = SL2CElement(np.diag([0.5, 2.0]).astype(complex))
    assert g.matrix[1, 1] == 2.0


def test_sl2c_from_flat():
    # 8 reals, row-major entries with re/im interleaved, as `--g` takes them
    g = SL2CElement.from_flat([1.0, 0.0, 0.0, 0.5, 0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(g.matrix, np.array([[1.0, 0.5j], [0.0, 1.0]]))
    with pytest.raises(MatrixInvariantError):
        SL2CElement.from_flat([1.0] * 7)


def test_su2_unitarity_invariant():
    with pytest.raises(MatrixInvariantError):
        SU2Element(np.diag([0.5, 2.0]).astype(complex))
    u = SU2Element.identity()
    assert np.allclose(u.matrix, np.eye(2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: SU2Element(np.full((2, 2), np.nan)),
        lambda: SU2Element(np.array([[np.inf, 0.0], [0.0, 1.0]])),
        lambda: SL2CElement(np.array([[np.nan, 0.0], [0.0, 1.0]])),
        lambda: su2_from_euler(math.nan, 0.3, 0.1),
        lambda: su2_from_euler(0.2, 0.3, math.inf),
    ],
    ids=["su2-nan", "su2-inf", "sl2c-nan", "euler-nan-alpha", "euler-inf-gamma"],
)
def test_non_finite_matrices_fail_invariants(build):
    with pytest.raises(MatrixInvariantError):
        build()


def test_matrix_is_read_only():
    g = SL2CElement.identity()
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 5.0


def test_elements_compare_and_hash_by_identity():
    for cls in (SL2CElement, SU2Element):
        u, v = cls.identity(), cls.identity()
        assert (u == v) is False
        assert u == u
        assert len({u, v}) == 2
    grid = haar_quadrature_su2(4)
    assert hash(grid) == hash(grid)
    assert grid != haar_quadrature_su2(4)


# --------------------------------------------------------------- decomposition

def test_cartan_identity_is_degenerate():
    f = cartan_decompose(SL2CElement.identity())
    assert f.epsilon == 1.0
    assert np.allclose(f.u2.matrix, np.eye(2))
    assert np.allclose(f.u1.matrix, np.eye(2))


def test_cartan_pure_boost():
    g = SL2CElement(np.diag([0.5, 2.0]).astype(complex))
    f = cartan_decompose(g)
    assert f.epsilon == pytest.approx(2.0, rel=1e-14)
    assert np.allclose(f.boost_matrix(), np.diag([0.5, 2.0]))
    assert np.allclose(f.recompose().matrix, g.matrix, atol=1e-12)
    assert epsilon_of(g) == pytest.approx(2.0, rel=1e-14)
    assert epsilon_of(SL2CElement.identity()) == 1.0


def test_cartan_roundtrip_fixed_epsilon(rng):
    eps0 = 3.7
    g = SL2CElement(
        random_su2_matrix(rng) @ np.diag([1 / eps0, eps0]) @ random_su2_matrix(rng),
        tol=1e-9,
    )
    f = cartan_decompose(g)
    assert f.epsilon == pytest.approx(eps0, abs=1e-10)
    assert np.max(np.abs(f.recompose().matrix - g.matrix)) < 1e-10


def test_cartan_roundtrip_thousand_draws(rng):
    worst = 0.0
    for _ in range(1000):
        eps0 = math.exp(rng.uniform(0.0, math.log(10.0)))
        g = SL2CElement(
            random_su2_matrix(rng) @ np.diag([1 / eps0, eps0]) @ random_su2_matrix(rng),
            tol=1e-9,
        )
        f = cartan_decompose(g)
        worst = max(
            worst,
            abs(f.epsilon - max(eps0, 1 / eps0)),
            float(np.max(np.abs(f.recompose().matrix - g.matrix))),
            abs(np.linalg.det(f.u1.matrix) - 1.0),
            abs(np.linalg.det(f.u2.matrix) - 1.0),
        )
    assert worst < 1e-10


def test_cartan_determinism_and_phase_convention(rng):
    g = SL2CElement(
        random_su2_matrix(rng) @ np.diag([1 / 2.2, 2.2]) @ random_su2_matrix(rng),
        tol=1e-9,
    )
    f1 = cartan_decompose(g)
    f2 = cartan_decompose(g)
    assert np.array_equal(f1.u1.matrix, f2.u1.matrix)
    assert np.array_equal(f1.u2.matrix, f2.u2.matrix)
    lead = f1.u1.matrix[0, 0] if abs(f1.u1.matrix[0, 0]) > 1e-12 else f1.u1.matrix[1, 0]
    assert abs(lead.imag) < 1e-12
    assert lead.real > 0


def test_epsilon_invariances(rng):
    for _ in range(50):
        eps0 = math.exp(rng.uniform(0.0, 2.0))
        g = SL2CElement(
            random_su2_matrix(rng) @ np.diag([1 / eps0, eps0]) @ random_su2_matrix(rng),
            tol=1e-9,
        )
        ginv = SL2CElement(np.linalg.inv(g.matrix), tol=1e-9)
        u = SU2Element(random_su2_matrix(rng), tol=1e-9)
        ug = SL2CElement(u.matrix @ g.matrix, tol=1e-9)
        assert epsilon_of(ginv) == pytest.approx(epsilon_of(g), rel=1e-10)
        assert epsilon_of(ug) == pytest.approx(epsilon_of(g), rel=1e-10)


# -------------------------------------------------------------- euler angles

def test_su2_from_euler_identity():
    u = su2_from_euler(0.0, 0.0, 0.0)
    assert np.allclose(u.matrix, np.eye(2))


def test_su2_from_euler_beta_pi_vs_exponential_oracle():
    sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
    want = expm(-0.5j * math.pi * sigma_y)
    u = su2_from_euler(0.0, math.pi, 0.0)
    assert np.allclose(u.matrix, want, atol=1e-12)
    assert np.allclose(u.matrix, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-12)


def test_su2_from_euler_matches_exponential_oracle():
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
    for a, b, g in ((0.3, 1.1, 2.0), (5.0, 2.9, 11.0), (1.0, 0.0, 0.5)):
        want = (
            expm(-0.5j * a * sigma_z) @ expm(-0.5j * b * sigma_y) @ expm(-0.5j * g * sigma_z)
        )
        assert np.allclose(su2_from_euler(a, b, g).matrix, want, atol=1e-12)


@given(
    st.floats(min_value=0.0, max_value=6.2),
    st.floats(min_value=0.0, max_value=12.5),
)
def test_torus_additivity(alpha, gamma):
    left = su2_from_euler(alpha, 0.0, 0.0).matrix @ su2_from_euler(0.0, 0.0, gamma).matrix
    assert np.allclose(left, su2_from_euler(alpha, 0.0, gamma).matrix, atol=1e-12)


@given(
    st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=4 * math.pi - 1e-9),
)
def test_euler_roundtrip(alpha, beta, gamma):
    u = su2_from_euler(alpha, beta, gamma)
    a, b, g = u.euler_angles()
    assert 0.0 <= a < 2 * math.pi + 1e-12
    assert 0.0 <= b <= math.pi
    assert 0.0 <= g < 4 * math.pi + 1e-12
    u2 = su2_from_euler(a, b, g)
    assert np.max(np.abs(u.matrix - u2.matrix)) < 1e-10


# ---------------------------------------------------------------- quadrature

def test_quadrature_band_zero_constant():
    grid = haar_quadrature_su2(0)
    assert grid.integrate(lambda u: 1.0).real == pytest.approx(1.0, abs=1e-14)
    assert float(np.sum(grid.weight_array())) == pytest.approx(1.0, abs=1e-13)


def test_quadrature_spin_half_norm():
    # dense high-band oracle for the same integral
    dense = haar_quadrature_su2(12)
    val_oracle = dense.integrate(
        lambda u: abs(wigner_D(SpinLabel(1), 1, 1, u)) ** 2
    ).real
    assert val_oracle == pytest.approx(0.5, abs=1e-12)
    grid = haar_quadrature_su2(2)
    val = grid.integrate(lambda u: abs(wigner_D(SpinLabel(1), 1, 1, u)) ** 2).real
    assert val == pytest.approx(0.5, abs=1e-12)


def test_quadrature_orthogonal_to_trivial():
    grid = haar_quadrature_su2(4)
    val = grid.integrate(lambda u: wigner_D(SpinLabel(2), 2, 0, u))
    assert abs(val) < 1e-13


def _gram_error(grid, twice_js):
    """Largest error of the grid's Gram matrix of every D^{s}_{mn} with 2s in twice_js."""
    entries = [
        (tj, tm, tn)
        for tj in twice_js
        for tm in range(-tj, tj + 1, 2)
        for tn in range(-tj, tj + 1, 2)
    ]
    nodes = []
    grid.sample(lambda u: nodes.append(u) or 0j)
    w = grid.weight_array().reshape(-1)
    vals = np.array([[wigner_D(SpinLabel(tj), tm, tn, u) for u in nodes] for tj, tm, tn in entries])
    gram = (vals * w) @ vals.conj().T
    expected = np.diag([1.0 / (tj + 1) for tj, _, _ in entries])
    return float(np.max(np.abs(gram - expected)))


@pytest.mark.parametrize("band", range(9))
def test_quadrature_exactness_all_pairs(band):
    grid = haar_quadrature_su2(band)
    assert grid.n_nodes == (band + 1) * (band // 2 + 1) * (2 * band + 1)
    assert _gram_error(grid, range(band + 1)) < 1e-12


@pytest.mark.parametrize("band", range(2, 9))
@pytest.mark.parametrize("axis", ["alphas", "betas", "gammas"])
def test_quadrature_one_node_fewer_on_any_axis_misintegrates(axis, band):
    # alpha aliases D^{B/2}_{B/2,n} against D^{B/2}_{-B/2,n}, gamma the same in
    # n; beta loses one degree on d^{s1} d^{s2} with s1 + s2 = B or B - 1
    grid = haar_quadrature_su2(band)
    n = len(getattr(grid, axis)) - 1
    if axis == "betas":
        x, w = np.polynomial.legendre.leggauss(n)
        fewer = dataclasses.replace(grid, betas=np.arccos(x), beta_weights=w)
    else:
        period = 2.0 * math.pi if axis == "alphas" else 4.0 * math.pi
        fewer = dataclasses.replace(grid, **{axis: period * np.arange(n) / n})
    assert _gram_error(fewer, (band - 1, band)) > 1e-2


def test_weight_array_matches_sampled_nodes():
    grid = haar_quadrature_su2(2)
    weights = grid.weight_array()
    assert weights.shape == grid.sample(lambda u: 0j).shape
    assert weights.size == grid.n_nodes
    assert math.fsum(weights.reshape(-1)) == pytest.approx(1.0, abs=1e-13)


def test_grid_nodes_match_su2_from_euler_in_grid_order():
    grid = haar_quadrature_su2(4)
    want = [
        su2_from_euler(a, b, g).matrix
        for a in grid.alphas for b in grid.betas for g in grid.gammas
    ]
    seen = []
    grid.sample(lambda u: seen.append(u.matrix) or 0j)
    assert len(seen) == len(want) == grid.n_nodes
    assert max(float(np.max(np.abs(m - w))) for m, w in zip(seen, want)) < 1e-15
    for m in seen:
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0


def test_grid_with_non_finite_angle_raises():
    grid = haar_quadrature_su2(4)
    alphas = grid.alphas.copy()
    alphas[-1] = math.inf
    bad = QuadratureGrid(4, alphas, grid.betas, grid.beta_weights, grid.gammas)
    with pytest.raises(MatrixInvariantError):
        bad.sample(lambda u: 1.0)


def test_sample_builds_nodes_one_alpha_slice_at_a_time():
    # a whole-grid matrix stack at band 24 (15,925 nodes) alone takes 1.0 MB;
    # the output array takes 255 KB and one alpha slice of matrices 41 KB
    grid = haar_quadrature_su2(24)
    tracemalloc.start()
    try:
        out = grid.sample(lambda u: 0j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes


@pytest.mark.parametrize(
    "field, value",
    [
        ("beta_weights", [2.0]),         # would broadcast against every beta
        ("beta_weights", np.ones((3, 1))),
        ("betas", np.ones((3, 1))),
        ("alphas", []),
        ("gammas", []),
    ],
)
def test_grid_rejects_malformed_node_arrays(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(haar_quadrature_su2(4), **{field: value})
