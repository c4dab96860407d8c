"""Transforms, derivatives, norms and dealiasing on the torus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusrd.fields import (
    band_block,
    band_forward,
    block_values,
    ArgumentErrors,
    GridField,
    TorusGrid,
    copy_band,
    dealias_in_place,
    forward,
    inverse_packed,
    inverse_real,
    read_snapshot,
    write_snapshot,
)
from torusrd.diagnostics import lq_norm_vector
from torusrd.solver import SolverConfig

from spectral_helpers import band_index, dealias_mask, hermitian_defect, mode_coeffs, mode_field


@pytest.fixture
def grid2():
    return TorusGrid(2, 32)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return GridField(grid, rng.standard_normal(grid.shape))


class TestGridValidation:
    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            TorusGrid(2, 33)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            TorusGrid(2, 6)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            TorusGrid(4, 16)

    def test_every_bad_argument_reported_at_once(self):
        with pytest.raises(ArgumentErrors) as info:
            TorusGrid(4, 7)
        assert list(info.value.problems) == ["d", "n_per_dim"]
        assert str(info.value) == ("d: dimension must be 2 or 3, got 4; "
                                   "n_per_dim: must be even and >= 8, got 7")

    def test_quadrature_weight(self, grid2):
        assert grid2.spacing == 1 / 32
        assert grid2.n_points == 32**2


def rel_err(got, expected):
    return np.abs(got - expected).max() / np.abs(expected).max()


class TestTransformHelpers:
    """The scipy.fft helpers against numpy.fft, over the trailing d axes of
    a batch (leading axis of 3)."""

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_forward_matches_numpy(self, d, n):
        rng = np.random.default_rng(d)
        axes = tuple(range(1, d + 1))
        values = rng.standard_normal((3,) + (n,) * d)
        packed = values + 1j * rng.standard_normal(values.shape)
        for x in (values, packed):
            got = forward(x, d)
            expected = np.fft.fftn(x, axes=axes) / n**d
            assert got.shape == expected.shape
            assert rel_err(got, expected) <= 1e-13

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_inverse_real_matches_numpy(self, d, n):
        shape = (n,) * d
        axes = tuple(range(1, d + 1))
        values = np.random.default_rng(d).standard_normal((3,) + shape)
        coeffs = np.fft.fftn(values, axes=axes) / n**d
        got = inverse_real(coeffs[..., : n // 2 + 1], shape)
        expected = np.fft.ifftn(coeffs, axes=axes).real * n**d
        assert got.shape == expected.shape
        assert rel_err(got, expected) <= 1e-13

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("overwrite_x", [False, True])
    def test_inverse_packed_matches_numpy(self, d, n, overwrite_x):
        rng = np.random.default_rng(d)
        axes = tuple(range(1, d + 1))
        coeffs = rng.standard_normal((3,) + (n,) * d) + 1j * rng.standard_normal((3,) + (n,) * d)
        expected = np.fft.ifftn(coeffs, axes=axes) * n**d
        got = inverse_packed(coeffs.copy() if overwrite_x else coeffs, d, overwrite_x=overwrite_x)
        assert got.shape == expected.shape
        assert rel_err(got, expected) <= 1e-13


def to_values(grid, coeffs):
    """Real grid values of a Hermitian spectrum, by the engine's real inverse."""
    return inverse_real(coeffs[..., : grid.n_per_dim // 2 + 1], grid.shape)


class TestForward:
    def test_constant_field(self, grid2):
        c = forward(np.ones(grid2.shape), 2)
        assert c[0, 0] == pytest.approx(1.0, abs=1e-14)
        rest = c.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() < 1e-14

    def test_cosine_single_mode(self, grid2):
        x = grid2.node_coordinates()[0]
        c = forward(np.cos(2 * np.pi * x), 2)
        assert c[1, 0] == pytest.approx(0.5, abs=1e-13)
        assert c[-1, 0] == pytest.approx(0.5, abs=1e-13)
        others = c.copy()
        others[1, 0] = others[-1, 0] = 0.0
        assert np.abs(others).max() < 1e-13

    def test_round_trip_identity(self, grid2):
        f = random_field(grid2)
        back = to_values(grid2, forward(f.values, 2))
        assert np.abs(back - f.values).max() < 1e-12 * np.abs(f.values).max()

    def test_parseval(self, grid2):
        f = random_field(grid2, seed=5)
        lhs = np.sum(np.abs(forward(f.values, 2)) ** 2)
        rhs = np.mean(f.values**2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestInverse:
    def test_constant_coefficient(self, grid2):
        coeffs = np.zeros(grid2.shape, dtype=complex)
        coeffs[0, 0] = 3.0
        assert np.abs(to_values(grid2, coeffs) - 3.0).max() < 1e-13

    def test_cosine_in_second_axis(self, grid2):
        f = mode_field(grid2, (0, 1), 0.5)
        y = grid2.node_coordinates()[1]
        assert np.abs(f.values - np.cos(2 * np.pi * y)).max() < 1e-13


class TestDerivatives:
    """grid.derivative_multipliers[j] * c, the engine's spectral derivative."""

    def test_cosine_derivative(self, grid2):
        c = forward(np.cos(2 * np.pi * grid2.node_coordinates()[0]), 2)
        d = to_values(grid2, grid2.derivative_multipliers[0] * c)
        expected = -2 * np.pi * np.sin(2 * np.pi * grid2.node_coordinates()[0])
        assert np.abs(d - expected).max() < 1e-10

    def test_constant_axis_derivative_zero(self, grid2):
        x = grid2.node_coordinates()[0]
        d = grid2.derivative_multipliers[1] * forward(np.sin(2 * np.pi * x), 2)
        assert np.abs(d).max() == 0.0

    def test_mixed_derivatives_commute(self, grid2):
        c = forward(random_field(grid2, seed=2).values, 2)
        m0, m1 = grid2.derivative_multipliers
        d12 = m1 * (m0 * c)
        d21 = m0 * (m1 * c)
        scale = np.abs(d12).max()
        assert np.abs(d12 - d21).max() < 1e-12 * scale

    def test_hermitian_preserved(self, grid2):
        c = forward(random_field(grid2, seed=3).values, 2)
        assert hermitian_defect(grid2.derivative_multipliers[0] * c, 2) < 1e-12


class TestLaplacianMultiplier:
    """TorusGrid.laplacian_multipliers at single lattice vectors."""

    def test_zero_mode(self, grid2):
        assert grid2.laplacian_multipliers[0, 0] == 0.0

    def test_unit_mode(self, grid2):
        assert grid2.laplacian_multipliers[1, 0] == pytest.approx(-4 * np.pi**2)

    def test_diagonal_mode(self, grid2):
        assert grid2.laplacian_multipliers[1, -1] == pytest.approx(-8 * np.pi**2)


def species_lq_norm(f: GridField, q: float) -> float:
    """diagnostics.lq_norm_vector of one species."""
    return lq_norm_vector(f.values[None], q)


class TestLpNorm:
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.5, 6.0])
    def test_unit_field(self, grid2, q):
        assert species_lq_norm(GridField(grid2, np.ones(grid2.shape)), q) == pytest.approx(1.0)

    def test_sin_l2(self, grid2):
        x = grid2.node_coordinates()[0]
        f = GridField(grid2, np.sin(2 * np.pi * x))
        # int sin^2 = 1/2 over one period
        assert species_lq_norm(f, 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_sin_l4(self, grid2):
        x = grid2.node_coordinates()[0]
        f = GridField(grid2, np.sin(2 * np.pi * x))
        # int sin^4 = 3/8 over one period
        assert species_lq_norm(f, 4.0) == pytest.approx((3 / 8) ** 0.25, abs=1e-12)

    def test_q_below_one_rejected(self):
        # exponents are checked where runs request them
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, T=0.1, lq_norms=(0.5,))

    def test_monotone_in_q(self, grid2):
        f = random_field(grid2, seed=9)
        norms = [species_lq_norm(f, q) for q in (1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def dealias(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """c with the 2/3 rule applied, by the in-place helper on a copy."""
    return dealias_in_place(c.copy(), grid.d, grid.dealias_band)


class TestDealias:
    def test_resolved_field_unchanged(self, grid2):
        c = mode_coeffs(grid2, (3, 2), 1.0 + 0.5j)
        assert np.array_equal(dealias(grid2, c), c)

    def test_nyquist_only_field_zeroed(self, grid2):
        coeffs = np.zeros(grid2.shape, dtype=complex)
        coeffs[16, 0] = 1.0  # Nyquist plane on a 32 grid
        assert np.abs(dealias(grid2, coeffs)).max() == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("n, band", [(24, None), (48, 21)])
    def test_matches_mask_product(self, d, ell, n, band):
        # on the n-grid (band n/3) against dealias_mask(grid), and on a 48-point
        # product grid with the 64-grid's band 21 against its band_index
        grid = TorusGrid(d, n)
        if band is None:
            band, mask = grid.dealias_band, dealias_mask(grid)
        else:
            mask = np.zeros(grid.shape, dtype=bool)
            mask[band_index(grid, band)] = True
        rng = np.random.default_rng(d + 10 * ell)
        coeffs = forward(rng.standard_normal((ell,) + grid.shape), d)
        coeffs = coeffs if ell > 1 else coeffs[0]
        expected = coeffs * mask.astype(complex)
        got = coeffs.copy()
        assert dealias_in_place(got, d, band) is got
        assert np.array_equal(got, expected)
        # kept entries keep their bits, the others are +0
        assert got[..., mask].tobytes() == coeffs[..., mask].tobytes()
        zeroed = got[..., ~mask]
        assert not np.any(np.signbit(zeroed.real) | np.signbit(zeroed.imag))

    @pytest.mark.parametrize("d, n, m", [(2, 96, 70), (3, 24, 20), (2, 50, 50)])
    def test_copy_band_moves_the_band_between_grids(self, d, n, m):
        # the corner blocks of the n-grid's band land in the m-grid's band,
        # bit for bit, in both directions; nothing else is written
        band = TorusGrid(d, n).dealias_band
        small, big = TorusGrid(d, m), TorusGrid(d, n)
        rng = np.random.default_rng(d)
        src = forward(rng.standard_normal((2,) + big.shape), d)
        dst = forward(rng.standard_normal((2,) + small.shape), d)
        expected = dst.copy()
        expected[(Ellipsis,) + band_index(small, band)] = src[(Ellipsis,) + band_index(big, band)]
        assert copy_band(src, dst, d, band) is dst
        assert dst.tobytes() == expected.tobytes()
        back = np.zeros_like(src)
        copy_band(dst, back, d, band)
        mask = np.zeros(big.shape, dtype=bool)
        mask[band_index(big, band)] = True
        assert back[..., mask].tobytes() == src[..., mask].tobytes()
        assert not np.any(back[..., ~mask])

    def test_product_matches_convolution_oracle(self):
        # supports |k_j| <= 3 on n = 12: the grid product has degree <= 6,
        # so no aliased image can land inside the kept ball |k_j| <= 4
        grid = TorusGrid(2, 12)
        rng = np.random.default_rng(4)
        table_f: dict[tuple, complex] = {(0, 0): 1.0}
        table_g: dict[tuple, complex] = {(0, 0): 0.5}
        for k in [(1, 0), (0, 2), (2, 1), (3, 3), (1, 2)]:
            for tab in (table_f, table_g):
                z = complex(rng.standard_normal(), rng.standard_normal())
                tab[k] = z
                tab[(-k[0]) % 12, (-k[1]) % 12] = np.conj(z)

        def assemble(tab):
            c = np.zeros(grid.shape, dtype=complex)
            for (k1, k2), z in tab.items():
                c[k1 % 12, k2 % 12] += z
            return c

        f, g = to_values(grid, assemble(table_f)), to_values(grid, assemble(table_g))
        product = dealias(grid, forward(f * g, 2))

        # direct convolution oracle
        exact = np.zeros(grid.shape, dtype=complex)
        for (a1, a2), za in table_f.items():
            for (b1, b2), zb in table_g.items():
                k = ((a1 + b1) % 12, (a2 + b2) % 12)
                # track the true lattice sum, not the wrapped index
                s1 = ((a1 + 6) % 12 - 6) + ((b1 + 6) % 12 - 6)
                s2 = ((a2 + 6) % 12 - 6) + ((b2 + 6) % 12 - 6)
                if abs(s1) <= 4 and abs(s2) <= 4:
                    exact[s1 % 12, s2 % 12] += za * zb
        assert np.abs(product - exact).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_parseval_property(seed):
    grid = TorusGrid(2, 16)
    f = GridField(grid, np.random.default_rng(seed).standard_normal(grid.shape))
    c = forward(f.values, 2)
    assert np.sum(np.abs(c) ** 2) == pytest.approx(np.mean(f.values**2), rel=1e-12)


class TestSnapshotFormat:
    def test_round_trip(self, tmp_path, grid2):
        fields = [random_field(grid2, seed=i) for i in range(3)]
        path = tmp_path / "state.krdf"
        write_snapshot(path, fields)
        back = read_snapshot(path)
        assert len(back) == 3
        for a, b in zip(fields, back):
            assert np.array_equal(a.values, b.values)

    def test_header_layout(self, tmp_path, grid2):
        path = tmp_path / "state.krdf"
        write_snapshot(path, [random_field(grid2)])
        blob = path.read_bytes()
        assert blob[:4] == b"KRDF"
        version, d, ell, n = np.frombuffer(blob[4:20], dtype="<u4")
        assert (version, d, ell, n) == (1, 2, 1, 32)
        assert len(blob) == 20 + 8 * 32**2

    def test_empty_snapshot_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^snapshot requires at least one field$"):
            write_snapshot(tmp_path / "state.krdf", [])
        assert not (tmp_path / "state.krdf").exists()

    def test_mixed_grids_rejected(self, tmp_path, grid2):
        fields = [random_field(grid2), GridField(TorusGrid(2, 16), np.zeros((16, 16)))]
        with pytest.raises(ValueError, match="^all snapshot fields must share one grid$"):
            write_snapshot(tmp_path / "state.krdf", fields)
        assert not (tmp_path / "state.krdf").exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.krdf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_3d_round_trip(self, tmp_path):
        grid = TorusGrid(3, 8)
        f = GridField(grid, np.random.default_rng(1).standard_normal(grid.shape))
        path = tmp_path / "cube.krdf"
        write_snapshot(path, [f])
        assert np.array_equal(read_snapshot(path)[0].values, f.values)


class TestBandBlock:
    """The state's band block and the real-transform route to it."""

    @pytest.mark.parametrize("d, n, lead", [(2, 16, ()), (2, 64, (2,)), (2, 84, (1,)), (2, 50, (2, 2)),
                                            (3, 8, (1,)), (3, 14, (2,)), (3, 24, (1, 3))])
    def test_band_forward_is_the_band_of_forward_bit_for_bit(self, d, n, lead):
        # fftn of real input fills half its spectrum with conjugates, in an
        # order band_forward repeats: its block keeps every bit, signed zeros
        # included, also from a strided view (the real part of a product)
        rng = np.random.default_rng(n)
        band = n // 3
        z = rng.standard_normal(lead + (n,) * d) + 1j * rng.standard_normal(lead + (n,) * d)
        for values in (z.real.copy(), z.real, 1e-3 * z.imag):
            got = band_forward(values, d, band)
            assert got.shape == lead + (2 * band + 1,) * d
            assert got.tobytes() == band_block(forward(values, d), d, band).tobytes()

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 12)])
    def test_block_values_and_signed_modes(self, d, n):
        grid = TorusGrid(d, n)
        k = (-1, 2) + (0,) * (d - 2)
        block = band_block(mode_coeffs(grid, k, 0.3 - 0.2j), d, grid.dealias_band)
        assert block[tuple(k)] == 0.3 - 0.2j and block[tuple(-kj for kj in k)] == 0.3 + 0.2j
        values = block_values(block[None], grid.shape)[0]
        assert np.abs(values - mode_field(grid, k, 0.3 - 0.2j).values).max() < 1e-15
