import numpy as np
import pytest

import amppath.instances
from amppath import (
    InstanceConfig,
    RangeError,
    SparseSpec,
    compute_observables,
    parse_prior,
    sample_instance,
    splitmix64,
    standard_normal,
    substreams,
    trial_seed,
)
from amppath.rng import open_uniform


def sparse_cfg(seed=0, k=20, noise=0.0, n=100, N=200):
    return InstanceConfig(n, N, SparseSpec(k=k), noise_variance=noise, seed=seed)


class TestSampling:
    def test_byte_level_determinism(self):
        a = sample_instance(sparse_cfg(seed=42, noise=0.3))
        b = sample_instance(sparse_cfg(seed=42, noise=0.3))
        for left, right in ((a.A, b.A), (a.x_o, b.x_o), (a.w, b.w), (a.y, b.y)):
            assert left.tobytes() == right.tobytes()

    def test_different_seeds_differ(self):
        a = sample_instance(sparse_cfg(seed=1))
        b = sample_instance(sparse_cfg(seed=2))
        assert not np.array_equal(a.A, b.A)

    def test_signal_substream_isolated_from_matrix(self):
        a = sample_instance(sparse_cfg(seed=5, k=10))
        b = sample_instance(sparse_cfg(seed=5, k=90))
        assert a.A.tobytes() == b.A.tobytes()
        assert not np.array_equal(a.x_o, b.x_o)

    def test_noise_substream_isolated(self):
        a = sample_instance(sparse_cfg(seed=5, noise=0.1))
        b = sample_instance(sparse_cfg(seed=5, noise=2.0))
        assert a.A.tobytes() == b.A.tobytes()
        assert a.x_o.tobytes() == b.x_o.tobytes()

    def test_empty_support(self):
        inst = sample_instance(sparse_cfg(k=0, noise=0.5))
        assert np.all(inst.x_o == 0.0)
        assert np.array_equal(inst.y, inst.w)

    def test_noiseless_consistency(self):
        inst = sample_instance(sparse_cfg(k=10))
        assert np.array_equal(inst.y, inst.A @ inst.x_o)
        assert np.all(inst.w == 0.0)

    def test_sparse_signal_shape(self):
        inst = sample_instance(sparse_cfg(k=17))
        assert np.count_nonzero(inst.x_o) == 17
        assert set(np.abs(inst.x_o[inst.x_o != 0.0])) == {1.0}

    def test_fixed_sign_spec(self):
        cfg = InstanceConfig(50, 100, SparseSpec(k=30, amplitude=2.0, random_sign=False), seed=3)
        inst = sample_instance(cfg)
        assert np.all(inst.x_o[inst.x_o != 0.0] == 2.0)

    def test_prior_signal(self):
        prior = parse_prior("0.9:0,0.05:1,0.05:-1")
        cfg = InstanceConfig(500, 1000, prior, seed=8)
        inst = sample_instance(cfg)
        values = set(np.unique(inst.x_o))
        assert values <= {-1.0, 0.0, 1.0}

    def test_matrix_scaling(self):
        inst = sample_instance(sparse_cfg(n=400, N=800))
        # entries are N(0, 1/n): empirical variance close to 1/400
        assert np.var(inst.A) == pytest.approx(1.0 / 400, rel=0.02)

    @pytest.mark.parametrize("shape", [(7, 13), (100, 200), (250, 500)])
    def test_matrix_cache_line_aligned(self, shape):
        # the matrix sits on a 64-byte boundary wherever the heap would put
        # it, and holds the values standard_normal draws, bit for bit
        cfg = InstanceConfig(*shape, SparseSpec(k=3), seed=11)
        A = sample_instance(cfg).A
        assert A.ctypes.data % 64 == 0 and A.flags.c_contiguous and A.shape == shape
        expected = standard_normal(substreams(11, 3)[0], shape) / np.sqrt(shape[0])
        assert A.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("noise, draws", [(0.0, 1), (0.3, 2)], ids=["noise-free", "noisy"])
    def test_one_gaussian_sampler(self, monkeypatch, noise, draws):
        # the matrix and the noise both come through rng.standard_normal, so
        # a wrapper of that one function sees every Gaussian draw
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return standard_normal(*args, **kwargs)

        monkeypatch.setattr(amppath.instances, "standard_normal", counted)
        inst = sample_instance(sparse_cfg(seed=4, noise=noise, n=30, N=60))
        assert len(calls) == draws and calls[0] == (30, 60)
        assert inst.A.ctypes.data % 64 == 0

    def test_column_norm_concentration(self):
        n, N = 200, 300
        lo, hi = 1 - 5 / np.sqrt(n), 1 + 5 / np.sqrt(n)
        for seed in range(100):
            inst = sample_instance(sparse_cfg(seed=seed, n=n, N=N, k=5))
            norms = np.linalg.norm(inst.A, axis=0)
            assert lo <= norms.min() and norms.max() <= hi

    def test_empirical_second_moment(self):
        prior = parse_prior("0.9:0,0.05:1,0.05:-1")
        N = 2500
        for seed in range(20):
            cfg = InstanceConfig(100, N, prior, seed=seed)
            inst = sample_instance(cfg)
            assert abs(np.mean(inst.x_o**2) - prior.second_moment) <= 4 / np.sqrt(N)

    def test_dimension_errors(self):
        with pytest.raises(RangeError):
            InstanceConfig(10, 20, SparseSpec(k=25))
        with pytest.raises(RangeError):
            InstanceConfig(0, 20, SparseSpec(k=5))
        with pytest.raises(RangeError):
            InstanceConfig(10, 20, SparseSpec(k=5), noise_variance=-1.0)

    def test_oversampled_warns(self):
        # the warning names the caller's line, not the dataclass-generated
        # __init__ (which read "<string>:8")
        with pytest.warns(UserWarning, match="not the undersampled regime") as record:
            InstanceConfig(30, 20, SparseSpec(k=5))
        assert [w.filename for w in record] == [__file__]


class TestObservables:
    def test_perfect_recovery(self):
        x_o = np.zeros(100)
        x_o[:10] = 1.0
        obs = compute_observables(x_o, x_o)
        assert (obs.mse, obs.fa, obs.dr, obs.md) == (0.0, 0.0, 0.1, 0.0)

    def test_zero_estimate(self):
        x_o = np.zeros(50)
        x_o[:5] = -2.0
        obs = compute_observables(np.zeros(50), x_o)
        assert obs.dr == 0.0
        assert obs.md == 0.1
        assert obs.mse == pytest.approx(0.4)

    def test_brute_force_recount(self):
        gen = np.random.default_rng(13)
        x_o = gen.choice([0.0, 1.0, -1.0], size=300, p=[0.8, 0.1, 0.1])
        x_hat = x_o + gen.normal(0, 0.3, size=300)
        x_hat[gen.random(300) < 0.3] = 0.0
        tol = 1e-6
        obs = compute_observables(x_hat, x_o, zero_tol=tol)
        mse = fa = dr = md = 0.0
        for i in range(300):
            mse += (x_hat[i] - x_o[i]) ** 2
            detected = abs(x_hat[i]) > tol
            dr += detected
            fa += detected and x_o[i] == 0.0
            md += (not detected) and x_o[i] != 0.0
        assert obs.mse == pytest.approx(mse / 300, rel=1e-12)
        assert obs.fa == fa / 300
        assert obs.dr == dr / 300
        assert obs.md == md / 300

    def test_length_mismatch(self):
        with pytest.raises(RangeError):
            compute_observables(np.zeros(5), np.zeros(6))

    @pytest.mark.parametrize("zero_tol", [np.nan, np.inf])
    def test_non_finite_zero_tol_rejected(self, zero_tol):
        # a NaN tolerance counted nothing as detected: dr 0, md 1
        x_o = np.ones(10)
        with pytest.raises(RangeError):
            compute_observables(x_o, x_o, zero_tol=zero_tol)


class TestSeedHashing:
    def test_splitmix_range_and_avalanche(self):
        outs = [splitmix64(s) for s in range(64)]
        assert all(0 <= v < 2**64 for v in outs)
        assert len(set(outs)) == 64
        # single-bit input flips scramble roughly half the output bits
        flips = bin(splitmix64(0) ^ splitmix64(1)).count("1")
        assert 16 <= flips <= 48

    def test_trial_seed_determinism_and_spread(self):
        seeds = {trial_seed(7, i, j, t) for i in range(4) for j in range(4) for t in range(4)}
        assert len(seeds) == 64
        assert trial_seed(7, 1, 2, 3) == trial_seed(7, 1, 2, 3)
        assert trial_seed(7, 1, 2, 3) != trial_seed(8, 1, 2, 3)


def open_uniform_from_integers(gen, size):
    # the reference formula: (k + 0.5) / 2^53 from 53-bit integers
    return (gen.integers(0, 1 << 53, size=size).astype(np.float64) + 0.5) * 2.0**-53


class TestOpenUniform:
    @pytest.mark.parametrize("size", [1, 7, (250, 500)])
    def test_matches_integer_formula(self, size):
        # same values, bit for bit, and the generator left in the same state
        for seed in range(20):
            fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            u = open_uniform(fast, size)
            assert np.array_equal(u, open_uniform_from_integers(reference, size))
            assert fast.bit_generator.state == reference.bit_generator.state
            assert 0.0 < u.min() and u.max() < 1.0
