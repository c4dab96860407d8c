"""Spectrum construction, hyperplane bases, increments and the transport term."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusrd.fields import TorusGrid, forward, inverse_packed
from torusrd.noise import (
    NoiseGridOps,
    NoiseModel,
    NoiseSpectrum,
    build_theta_shell,
    hyperplane_bases,
    path_rng,
    sample_increments,
    shell_max_k,
    spectrum_from_csv,
    spectrum_to_csv,
    verify_ellipticity,
)
from torusrd.reactions import build_builtin
from torusrd.solver import SolverConfig, Stepper

from spectral_helpers import (block_of, full_layout, hermitian_defect, increment,
                              lattice_partition)

lattice_vec = st.lists(st.integers(-9, 9), min_size=2, max_size=3).filter(lambda k: any(k))


class TestLatticePartition:
    def test_examples(self):
        assert lattice_partition((1, -5)) == 1
        assert lattice_partition((0, -2)) == -1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lattice_partition((0, 0, 0))

    @settings(max_examples=100, deadline=None)
    @given(k=lattice_vec)
    def test_antisymmetry(self, k):
        assert lattice_partition(k) == -lattice_partition([-x for x in k])


def basis(k) -> np.ndarray:
    """hyperplane_bases of the single mode k, shape (d-1, d)."""
    return hyperplane_bases(np.array([k]))[0]


def theta_at(spectrum: NoiseSpectrum, k) -> float:
    """The weight of mode k in spectrum."""
    (row,) = np.flatnonzero(np.all(spectrum.support == k, axis=1))
    return float(spectrum.theta[row])


class TestHyperplaneBasis:
    def test_d2_rotation(self):
        a = basis((3, 4))
        assert a.shape == (1, 2)
        assert np.allclose(a[0], (-0.8, 0.6), atol=1e-15)

    def test_d3_axis_mode(self):
        a = basis((0, 0, 1))
        assert np.allclose(a, [(1, 0, 0), (0, 1, 0)], atol=1e-15)

    def test_shared_between_k_and_minus_k(self):
        # the model keeps one basis per pair {k, -k}, on its plus mode: both
        # span the same hyperplane, so their projectors agree
        for k in ((2, -3), (1, 2, -2)):
            a, b = basis(k), basis([-x for x in k])
            assert np.abs(a.T @ a - b.T @ b).max() < 1e-15

    @settings(max_examples=100, deadline=None)
    @given(k=lattice_vec)
    def test_orthonormal_and_orthogonal_to_k(self, k):
        d = len(k)
        a = basis(k)
        gram = a @ a.T
        assert np.abs(gram - np.eye(d - 1)).max() < 1e-14
        assert np.abs(a @ np.asarray(k, dtype=float)).max() < 1e-14 * max(abs(x) for x in k)

    @pytest.mark.parametrize("d, n", [(2, 4), (3, 2)])
    def test_model_bases_match_per_mode_basis(self, d, n):
        # the batched construction over all plus modes is row by row the
        # single-mode one
        model = NoiseModel(build_theta_shell(n, 0.5, d), nu=0.1)
        assert len(model.plus_modes) == len(model.spectrum.support) // 2
        for k, theta, a in zip(model.plus_modes, model.theta_plus, model.basis_plus):
            assert lattice_partition(k) == 1
            assert theta == theta_at(model.spectrum, k) == theta_at(model.spectrum, -k)
            assert np.array_equal(a, basis(k))


class TestThetaShell:
    def test_d2_first_shell(self):
        sp = build_theta_shell(1, 0.0, 2)
        assert len(sp.support) == 12
        assert np.allclose(sp.theta, 12**-0.5)
        assert sorted(set(int(np.dot(k, k)) for k in sp.support)) == [1, 2, 4]

    def test_d2_second_shell(self):
        sp = build_theta_shell(2, 0.0, 2)
        assert len(sp.support) == 40
        assert np.allclose(sp.theta, 40**-0.5)

    @pytest.mark.parametrize("d", [2, 3])
    def test_shell_max_k_is_the_annulus_max_component(self, d):
        for shell in range(1, 9):
            assert shell_max_k(shell) == build_theta_shell(shell, 0.5, d).max_component()

    def test_linf_decreasing_in_n(self):
        linfs = [build_theta_shell(n, 0.0, 2).linf() for n in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(linfs, linfs[1:]))

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_normalization(self, n, gamma, d):
        sp = build_theta_shell(n, gamma, d)
        assert abs(np.sum(sp.theta**2) - 1.0) < 1e-14

    def test_gamma_weights_decay_with_radius(self):
        sp = build_theta_shell(2, 1.0, 2)
        assert theta_at(sp, (2, 0)) > theta_at(sp, (4, 0))

    @pytest.mark.parametrize("d", [2, 3])
    def test_numpy_integer_counts_give_the_int_spectrum(self, d):
        # -max_k of an unsigned numpy count would wrap and empty the lattice
        sp = build_theta_shell(2, 0.5, d)
        for shell in (np.uint8(2), np.int64(2)):
            got = build_theta_shell(shell, 0.5, d)
            assert np.array_equal(got.support, sp.support)
            assert np.array_equal(got.theta, sp.theta)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_theta_shell(0, 0.0, 2)
        with pytest.raises(ValueError):
            build_theta_shell(1, -0.5, 2)

    def test_spectrum_validation(self):
        # unnormalized table is rejected on construction
        with pytest.raises(ValueError, match="normalized"):
            NoiseSpectrum(
                support=np.array([[1, 0], [-1, 0]]), theta=np.array([1.0, 1.0])
            )
        with pytest.raises(ValueError, match="symmetric"):
            NoiseSpectrum(
                support=np.array([[1, 0], [0, 1]]),
                theta=np.array([2**-0.5, 2**-0.5]),
            )
        with pytest.raises(ValueError, match=r"missing -k for k=\(0, 1\)"):
            NoiseSpectrum(
                support=np.array([[1, 0], [-1, 0], [0, 1]]),
                theta=np.full(3, 3**-0.5),
            )
        # every mode twice at theta / sqrt(2): normalized and symmetric, but
        # the velocity synthesis keeps one copy of each mode
        shell = build_theta_shell(2, 0.0, 2)
        with pytest.raises(ValueError, match="support lists a mode twice"):
            NoiseSpectrum(support=np.concatenate([shell.support, shell.support]),
                          theta=np.concatenate([shell.theta, shell.theta]) / np.sqrt(2.0))
        # same |k|^2 = 4, unequal weights
        with pytest.raises(ValueError, match=r"radially symmetric at \|k\|\^2=4"):
            NoiseSpectrum(
                support=np.array([[1, 0], [-1, 0], [2, 0], [-2, 0], [0, 2], [0, -2]]),
                theta=np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0]) / np.sqrt(12.0),
            )

    @pytest.mark.parametrize("support, theta, error", [
        ([1, 0, -1, 0], [0.5**0.5] * 2, "support and theta shapes are inconsistent"),
        ([[1, 0], [-1, 0]], [1.0], "support and theta shapes are inconsistent"),
        ([[1, 0], [0, 0], [-1, 0]], [3**-0.5] * 3, "k = 0 is not an admissible noise mode"),
    ])
    def test_malformed_support_rejected(self, support, theta, error):
        with pytest.raises(ValueError, match=f"^{error}$"):
            NoiseSpectrum(support=np.array(support), theta=np.array(theta))


class TestEllipticity:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_d2_identity(self, n, gamma):
        model = NoiseModel(build_theta_shell(n, gamma, 2), nu=0.1)
        assert verify_ellipticity(model) < 1e-12  # target 1/c_d = 0.5

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_d3_identity(self, n, gamma):
        model = NoiseModel(build_theta_shell(n, gamma, 3), nu=0.1)
        assert model.c_d == pytest.approx(1.5)
        assert verify_ellipticity(model) < 1e-12  # target 1/c_d = 2/3

    def test_detector_flags_broken_model(self):
        model = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
        broken = model.basis_plus.copy()
        broken[0] *= 1.3  # corrupt one basis vector's normalization
        model.__dict__["basis_plus"] = broken
        assert verify_ellipticity(model) > 0.01


class TestIncrements:
    def test_zero_dt(self):
        model = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
        dw = sample_increments(model, 0.0, path_rng(1, 0, 0))
        assert dw.shape == (len(model.plus_modes), 1) and np.abs(dw).max() == 0.0

    def test_second_moment(self):
        # E|dW|^2 = 2 dt, averaged over ~1e5 draws
        model = NoiseModel(build_theta_shell(4, 0.0, 2), nu=0.1)
        dt = 0.3
        rng = np.random.default_rng(8)
        total, count = 0.0, 0
        while count < 100_000:
            dw = sample_increments(model, dt, rng)
            total += float(np.sum(np.abs(dw) ** 2))
            count += dw.size
        assert total / count / dt == pytest.approx(2.0, abs=0.03)

    def test_conjugation_exact(self):
        model = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
        dw = sample_increments(model, 0.01, path_rng(5, 0, 0))
        for k in model.spectrum.support:
            assert increment(model, dw, k, 0) == np.conj(increment(model, dw, -k, 0))

    def test_counter_rng_reproducible_and_distinct(self):
        model = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)
        a = sample_increments(model, 0.01, path_rng(5, 1, 7))
        b = sample_increments(model, 0.01, path_rng(5, 1, 7))
        c = sample_increments(model, 0.01, path_rng(5, 1, 8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [5, -3, -2**63, 2**63 - 1])
    def test_rekeyed_generator_is_bitwise_a_fresh_one(self, seed):
        # one generator per path, re-keyed to each step out of order, after
        # draws of different lengths (an odd count of 32-bit draws leaves half
        # a word buffered); Philox wraps a negative seed mod 2^64
        model = NoiseModel(build_theta_shell(2, 0.0, 2), nu=0.1)
        rng = path_rng(seed, 3, 0)
        for step, draws in [(4, 3), (1, 8), (9, 1), (1, 0), (0, 5)]:
            assert path_rng(seed, 3, step, rng) is rng
            fresh = path_rng(seed, 3, step)
            assert (rng.bit_generator.state["state"]["key"].tobytes()
                    == fresh.bit_generator.state["state"]["key"].tobytes())
            got = sample_increments(model, 0.01, rng)
            assert got.tobytes() == sample_increments(model, 0.01, fresh).tobytes()
            rng.integers(0, 2**32, size=draws, dtype=np.uint32)
            rng.standard_normal(draws)

    @pytest.mark.parametrize("d, shell", [(2, 1), (2, 8), (3, 2)])
    def test_matches_two_draw_formula(self, d, shell):
        # one draw of shape (2, m+, d-1) is the stream of two draws of
        # (m+, d-1), real parts first, scaled the same way
        model = NoiseModel(build_theta_shell(shell, 0.0, d), nu=0.1)
        dt = 2.5e-3
        rng = path_rng(7, 2, 3)
        shape = (len(model.plus_modes), d - 1)
        scale = np.sqrt(dt)
        expected = scale * rng.standard_normal(shape) + 1j * scale * rng.standard_normal(shape)
        got = sample_increments(model, dt, path_rng(7, 2, 3))
        assert got.tobytes() == expected.tobytes()  # bitwise, signs of zero too


def transport(model, grid, values, dw):
    """Stepper.transport of the band part of one species with grid values,
    as full-layout coefficients."""
    cfg = SolverConfig(dt=1e-3, T=1e-3)
    stepper = Stepper(grid, build_builtin("zero", [0.0], d=grid.d), model, cfg)
    block = block_of(grid, forward(values, grid.d)[None])
    return full_layout(grid, stepper.transport(block, dw))[0]


class TestTransport:
    def setup_method(self):
        self.grid = TorusGrid(2, 32)
        self.model = NoiseModel(build_theta_shell(1, 0.0, 2), nu=0.1)

    def test_constant_field_gives_zero(self):
        inc = sample_increments(self.model, 1e-3, path_rng(1, 0, 0))
        out = transport(self.model, self.grid, np.full(self.grid.shape, 2.5), inc)
        assert np.abs(out).max() < 1e-16

    def test_zero_increments_give_zero(self):
        x = self.grid.node_coordinates()[0]
        inc = sample_increments(self.model, 0.0, path_rng(1, 0, 0))
        out = transport(self.model, self.grid, np.sin(2 * np.pi * x), inc)
        assert np.abs(out).max() == 0.0

    def test_single_mode_oracle(self):
        # one active pair k = (0, +-1); v = sin(2 pi x1); the closed form is
        #   sqrt(c_d nu) theta (a . grad v) 2 Re(e^{2 pi i x2} dW)
        # with a = (-1, 0), so a . grad v = -2 pi cos(2 pi x1).
        spectrum = NoiseSpectrum(
            support=np.array([[0, 1], [0, -1]]),
            theta=np.array([2**-0.5, 2**-0.5]),
        )
        model = NoiseModel(spectrum, nu=0.2)
        x1, x2 = self.grid.node_coordinates()
        inc = sample_increments(model, 1e-2, path_rng(3, 0, 0))
        dw = increment(model, inc, (0, 1), 0)
        expected = (
            np.sqrt(model.c_d * model.nu)
            * 2**-0.5
            * (-2 * np.pi)
            * np.cos(2 * np.pi * x1)
            * 2
            * np.real(np.exp(2j * np.pi * x2) * dw)
        )
        out = transport(model, self.grid, np.sin(2 * np.pi * x1), inc)
        assert np.abs(inverse_packed(out, 2).real - expected).max() < 1e-10

    def test_single_mode_oracle_3d(self):
        # one active pair k = (+-1, 0, 0) with hyperplane basis a_0 = e_2,
        # a_1 = e_3; v = cos(2 pi x2) + sin(2 pi x3), so the closed form is
        #   sqrt(c_d nu) theta sum_alpha (a_alpha . grad v) 2 Re(e^{2 pi i x1} dW_alpha)
        # and the a_1 term rides the third-derivative transform
        spectrum = NoiseSpectrum(
            support=np.array([[1, 0, 0], [-1, 0, 0]]),
            theta=np.array([2**-0.5, 2**-0.5]),
        )
        model = NoiseModel(spectrum, nu=0.2)
        grid = TorusGrid(3, 8)
        x1, x2, x3 = grid.node_coordinates()
        inc = sample_increments(model, 1e-2, path_rng(3, 0, 0))
        wave = np.exp(2j * np.pi * x1)
        dw0, dw1 = (increment(model, inc, (1, 0, 0), alpha) for alpha in (0, 1))
        expected = np.sqrt(model.c_d * model.nu) * 2**-0.5 * (
            -2 * np.pi * np.sin(2 * np.pi * x2) * 2 * np.real(wave * dw0)
            + 2 * np.pi * np.cos(2 * np.pi * x3) * 2 * np.real(wave * dw1)
        )
        out = transport(model, grid, np.cos(2 * np.pi * x2) + np.sin(2 * np.pi * x3), inc)
        assert np.abs(inverse_packed(out, 3).real - expected).max() < 1e-10

    def test_output_real_and_mean_free(self):
        rng = np.random.default_rng(11)
        inc = sample_increments(self.model, 1e-3, path_rng(9, 0, 0))
        out = transport(self.model, self.grid, rng.standard_normal(self.grid.shape), inc)
        assert hermitian_defect(out, 2) < 1e-10
        assert out[0, 0] == 0.0

    def test_under_resolved_support_rejected(self):
        model = NoiseModel(build_theta_shell(16, 0.0, 2), nu=0.1)
        with pytest.raises(ValueError, match="under-resolved"):
            NoiseGridOps(model, TorusGrid(2, 64))

    # (2, 96, 8) is the shell sweep's largest box, (2, 48, 2) the Wong-Zakai
    # product grid of a 64^2 shell-2 run
    @pytest.mark.parametrize("d, n, shell", [(2, 32, 2), (2, 96, 8), (2, 48, 2), (3, 16, 1),
                                             (3, 24, 1), (3, 32, 2)])
    def test_packed_velocity_matches_per_component_transforms(self, d, n, shell):
        # direct formula: one complex inverse transform per component of
        # sqrt(c_d nu) sum_{k, alpha} theta_k a_{k,alpha} dW(k, alpha) e^{2 pi i k.x}
        grid = TorusGrid(d, n)
        model = NoiseModel(build_theta_shell(shell, 0.5, d), nu=0.1)
        inc = sample_increments(model, 1e-2, path_rng(4, 0, 0))
        w, u2 = NoiseGridOps(model, grid).velocity_field(inc)
        assert (u2 is None) == (d == 2)
        # the Wong-Zakai step scales both in place through a float64 view
        for part in (w, u2) if d == 3 else (w,):
            assert part.shape == grid.shape and part.flags.c_contiguous
        assert u2 is None or u2.dtype == np.float64
        got = [w.real, -w.imag, u2]  # w = u_0 - i u_1
        for j in range(d):
            spec = np.zeros(grid.shape, dtype=complex)
            # k and -k share theta and the basis of the plus mode k
            for k, theta, a in zip(model.plus_modes, model.theta_plus, model.basis_plus):
                for mode in (k, -k):
                    spec[tuple(mode % n)] += np.sqrt(model.c_d * model.nu) * theta * sum(
                        a[alpha, j] * increment(model, inc, mode, alpha) for alpha in range(d - 1)
                    )
            expected = np.fft.ifftn(spec).real * grid.n_points
            assert np.abs(got[j] - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_statistical_isotropy(self):
        # covariance of the sampled velocity at a fixed point is 2 nu dt I,
        # i.e. (1/c_d)-isotropic after undoing the c_d nu scaling
        model = self.model
        ops = NoiseGridOps(model, self.grid)
        dt = 0.05
        rng = np.random.default_rng(13)
        draws = np.empty((12_000, 2))
        for i in range(len(draws)):
            inc = sample_increments(model, dt, rng)
            w, _ = ops.velocity_field(inc)
            draws[i] = w.real[5, 9], -w.imag[5, 9]
        cov = draws.T @ draws / len(draws)
        target = 2 * model.nu * dt * np.eye(2)
        # variance of a sample second moment of a Gaussian: ~ sqrt(2/n) var
        se = 2 * model.nu * dt * np.sqrt(2 / len(draws))
        assert np.abs(cov - target).max() < 5 * se


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        sp = build_theta_shell(2, 0.5, 2)
        path = tmp_path / "spectrum.csv"
        spectrum_to_csv(sp, path)
        back = spectrum_from_csv(path)
        assert np.array_equal(back.support, sp.support)
        assert back.theta.tobytes() == sp.theta.tobytes()

    def test_header(self, tmp_path):
        sp = build_theta_shell(1, 0.0, 3)
        path = tmp_path / "spectrum.csv"
        spectrum_to_csv(sp, path)
        assert path.read_text().splitlines()[0] == "k1,k2,k3,theta"

    @pytest.mark.parametrize("text, error", [
        ("k1,k2,weight\n1,0,1.0\n", r"unrecognized spectrum CSV header: \['k1', 'k2', 'weight'\]"),
        ("x,y,theta\n1,0,1.0\n", r"unrecognized spectrum CSV header: \['x', 'y', 'theta'\]"),
        ("", r"spectrum CSV .*spectrum\.csv lists no mode"),
        ("\n", r"spectrum CSV .*spectrum\.csv lists no mode"),
        ("k1,k2,theta\n", r"spectrum CSV .*spectrum\.csv lists no mode"),
        ("k1,k2,theta\n1,0\n", r"spectrum CSV .*spectrum\.csv, row 2: expected 3 entries"),
        ("k1,k2,theta\n1,0,0.7,0.7\n", r"spectrum CSV .*spectrum\.csv, row 2: expected 3 entries"),
    ], ids=["theta_column", "k_columns", "empty", "blank", "header_only", "short_row",
            "long_row"])
    def test_malformed_file_rejected(self, tmp_path, text, error):
        path = tmp_path / "spectrum.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{error}"):
            spectrum_from_csv(path)
