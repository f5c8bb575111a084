"""Evidence functions and the Dirichlet uncertainty math.

The numeric expectations here are closed-form: evidence values evaluate
the three formulas directly, and every Dirichlet quantity follows from
alpha = e + 1, S = sum(alpha), b = e/S, u = 1 - K/S.
"""

import math
import warnings

import numpy as np
import pytest

from protouq import (
    TEXT,
    VISION,
    EvidenceConfig,
    dirichlet_from_evidence,
    generate_evidence,
    normalize_rows,
    uncertainty_scores,
)
from protouq.errors import (
    DimensionMismatch,
    EmptyVector,
    InvalidConfig,
    ModalityMismatch,
    NegativeEvidence,
)
from protouq.evidence import PrototypeBank, dirichlet_uncertainty, evidence_slope, prototype_similarities


class TestEvidenceConfig:
    def test_defaults(self):
        cfg = EvidenceConfig()
        assert (cfg.kind, cfg.gamma, cfg.theta, cfg.tau) == ("exponential", 1.0, 20.0, 5.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfig):
            EvidenceConfig(kind="sigmoid")

    @pytest.mark.parametrize("field", ["gamma", "theta", "tau"])
    def test_nonpositive_parameter_rejected(self, field):
        with pytest.raises(InvalidConfig):
            EvidenceConfig(**{field: 0.0})


class TestGenerateEvidence:
    def test_exponential_at_zero(self):
        assert generate_evidence(0.0, EvidenceConfig(kind="exponential", tau=5.0)) == 1.0

    def test_exponential_at_tau(self):
        out = generate_evidence(5.0, EvidenceConfig(kind="exponential", tau=5.0))
        assert out == pytest.approx(math.e, abs=1e-12)

    def test_relu_negative_branch(self):
        assert generate_evidence(-0.3, EvidenceConfig(kind="relu")) == 0.0

    def test_relu_positive_branch(self):
        assert generate_evidence(0.7, EvidenceConfig(kind="relu")) == 0.7

    def test_softplus_at_zero_is_log_two(self):
        out = generate_evidence(0.0, EvidenceConfig(kind="softplus", gamma=1.0))
        assert out == pytest.approx(math.log(2.0), abs=1e-12)

    def test_softplus_reverts_to_identity_past_threshold(self):
        cfg = EvidenceConfig(kind="softplus", gamma=1.0, theta=20.0)
        assert generate_evidence(25.0, cfg) == 25.0

    def test_softplus_at_the_threshold_is_still_softplus(self):
        # gamma * s == theta is the last point of the softplus branch, where
        # softplus and the identity differ by log1p(exp(-20)), about 2e-9.
        cfg = EvidenceConfig(kind="softplus", gamma=1.0, theta=20.0)
        assert generate_evidence(20.0, cfg) == np.log1p(np.exp(20.0)) != 20.0

    def test_softplus_gamma_scaling(self):
        cfg = EvidenceConfig(kind="softplus", gamma=2.0)
        want = math.log1p(math.exp(2.0 * 0.3)) / 2.0
        assert generate_evidence(0.3, cfg) == pytest.approx(want, abs=1e-12)

    def test_array_input_gives_array_output(self):
        out = generate_evidence(np.array([-1.0, 0.0, 1.0]), EvidenceConfig(kind="relu"))
        assert out.tolist() == [0.0, 0.0, 1.0]

    def test_scalar_input_gives_float(self):
        assert isinstance(generate_evidence(0.4), float)

    @pytest.mark.parametrize("kind", ["relu", "softplus", "exponential"])
    def test_nonnegative_over_similarity_range(self, kind):
        s = np.linspace(-1.0, 1.0, 101)
        out = generate_evidence(s, EvidenceConfig(kind=kind))
        assert np.all(out >= 0.0)


class TestEvidenceSlope:
    @pytest.mark.parametrize("kind", ["relu", "softplus", "exponential"])
    def test_matches_central_differences(self, kind):
        cfg = EvidenceConfig(kind=kind)
        # stay away from relu's kink at 0 where the derivative jumps
        points = np.concatenate([np.linspace(-0.95, -0.05, 10), np.linspace(0.05, 0.95, 10)])
        eps = 1e-6
        got = evidence_slope(points, cfg)
        want = (generate_evidence(points + eps, cfg) - generate_evidence(points - eps, cfg)) / (2 * eps)
        assert np.allclose(got, want, atol=1e-8)

    def test_softplus_slope_past_threshold_is_one(self):
        cfg = EvidenceConfig(kind="softplus", gamma=1.0, theta=20.0)
        assert evidence_slope(25.0, cfg) == 1.0

    def test_softplus_slope_at_the_threshold_is_the_sigmoid(self):
        cfg = EvidenceConfig(kind="softplus", gamma=1.0, theta=20.0)
        assert evidence_slope(20.0, cfg) == 1.0 / (1.0 + np.exp(-20.0)) != 1.0

    def test_relu_subgradient_at_zero(self):
        assert evidence_slope(0.0, EvidenceConfig(kind="relu")) == 0.0


class TestDirichletFromEvidence:
    def test_zero_evidence(self):
        state = dirichlet_from_evidence([0.0, 0.0, 0.0, 0.0])
        assert state.strength == 4.0
        assert state.beliefs.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert state.psi == 1.0
        assert state.u == 0.0

    def test_two_units_of_evidence(self):
        state = dirichlet_from_evidence([1.0, 1.0])
        assert state.strength == 4.0
        assert state.beliefs.tolist() == [0.25, 0.25]
        assert state.u == 0.5

    def test_skewed_evidence(self):
        state = dirichlet_from_evidence([3.0, 0.0, 0.0, 1.0])
        assert state.strength == 8.0
        assert state.beliefs.tolist() == [0.375, 0.0, 0.0, 0.125]
        assert state.psi == 0.5
        assert state.u == 0.5

    def test_alpha_is_evidence_plus_one_exactly(self):
        e = np.array([0.0, 0.5, 3.25])
        state = dirichlet_from_evidence(e)
        assert np.array_equal(state.alpha, e + 1.0)

    def test_masses_partition_unit(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            e = rng.uniform(0.0, 10.0, size=rng.integers(1, 17))
            state = dirichlet_from_evidence(e)
            assert abs(state.psi + state.beliefs.sum() - 1.0) < 1e-9
            assert abs(state.u - (1.0 - state.k / state.strength)) < 1e-9
            assert 0.0 <= state.u < 1.0
        # finite evidence whose sum passes float64 saturates, with no warning
        state = dirichlet_from_evidence([1e308, 1e308])
        assert (state.strength, state.u, state.psi) == (math.inf, 1.0, 0.0)
        assert state.beliefs.tolist() == [0.0, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(EmptyVector):
            dirichlet_from_evidence([])

    def test_negative_rejected(self):
        with pytest.raises(NegativeEvidence):
            dirichlet_from_evidence([1.0, -0.1])

    def test_non_finite_rejected(self):
        with pytest.raises(NegativeEvidence):
            dirichlet_from_evidence([1.0, float("nan")])


class TestDirichletUncertainty:
    @pytest.mark.parametrize("k", [1, 8])
    def test_u_is_one_from_strength_k_times_2_pow_54(self, k):
        # float64 rounds 1 - K/S to 1.0 once K/S <= 2**-54; just below that
        # strength u is still the largest double under 1
        u, strength = dirichlet_uncertainty(np.full(k, 2.0**54))
        assert strength == k * 2.0**54
        assert u == 1.0
        u, strength = dirichlet_uncertainty(np.full(k, 2.0**54 - 4.0))
        assert strength == k * 2.0**54 * (1.0 - 2.0**-52)
        assert u == 0.9999999999999999 == np.nextafter(1.0, 0.0)


def basis_instances(rows, d, modality=VISION):
    eye = np.eye(d)
    return normalize_rows(eye[list(rows)], modality)


class TestUncertaintyScores:
    def test_orthogonal_instance_scores_one_half(self):
        # p = 0 against every prototype, exponential evidence: e = 1 each,
        # S = 2K, u = 1 - K/(2K) = 0.5 with no rounding
        instances = basis_instances([0], 4)
        bank = PrototypeBank(modality=TEXT, vectors=np.eye(4)[1:4])
        u = uncertainty_scores(instances, bank, EvidenceConfig())
        assert u[0] == 0.5

    def test_single_prototype_equal_to_instance(self):
        instances = basis_instances([0], 4)
        bank = PrototypeBank(modality=TEXT, vectors=np.eye(4)[:1])
        u = uncertainty_scores(instances, bank, EvidenceConfig())
        strength = 1.0 + math.exp(0.2)
        assert strength == pytest.approx(2.221403, abs=1e-6)
        assert u[0] == pytest.approx(1.0 - 1.0 / strength, abs=1e-12)
        assert u[0] == pytest.approx(0.549834, abs=1e-6)

    def test_matches_per_row_dirichlet(self):
        rng = np.random.default_rng(21)
        instances = normalize_rows(rng.standard_normal((6, 5)), VISION)
        bank = PrototypeBank(modality=TEXT, vectors=rng.standard_normal((3, 5)))
        cfg = EvidenceConfig(kind="softplus")
        u = uncertainty_scores(instances, bank, cfg)
        p = prototype_similarities(instances, bank)
        for i in range(6):
            want = dirichlet_from_evidence(generate_evidence(p[i], cfg)).u
            assert u[i] == pytest.approx(want, abs=1e-12)

    def test_raising_every_similarity_raises_u(self):
        rng = np.random.default_rng(22)
        cfg = EvidenceConfig()
        for _ in range(20):
            p = rng.uniform(-0.9, 0.85, size=6)
            u_low = dirichlet_from_evidence(generate_evidence(p, cfg)).u
            u_high = dirichlet_from_evidence(generate_evidence(p + 0.05, cfg)).u
            assert u_high > u_low

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        cfg = EvidenceConfig()
        p = rng.uniform(-1.0, 1.0, size=8)
        u = dirichlet_from_evidence(generate_evidence(p, cfg)).u
        u_shuffled = dirichlet_from_evidence(generate_evidence(p[::-1], cfg)).u
        assert u == pytest.approx(u_shuffled, abs=1e-12)

    def test_relu_zero_evidence_means_zero_u(self):
        instances = basis_instances([0], 4)
        # all similarities negative: relu evidence is identically 0
        bank = PrototypeBank(modality=TEXT, vectors=-np.eye(4)[:2] - 0.1)
        u = uncertainty_scores(instances, bank, EvidenceConfig(kind="relu"))
        assert u[0] == 0.0

    def test_strong_similarities_beat_weak_ones(self):
        cfg = EvidenceConfig()
        u_strong = dirichlet_from_evidence(generate_evidence(np.full(4, 0.8), cfg)).u
        u_weak = dirichlet_from_evidence(generate_evidence(np.full(4, 0.2), cfg)).u
        assert u_strong > u_weak
        assert u_strong == pytest.approx(0.539915, abs=1e-6)
        assert u_weak == pytest.approx(0.509999, abs=1e-6)

    def test_float64_limits_of_exponential_evidence(self):
        # K = 3 equal similarities s at tau = 5: u reaches 1.0 between
        # s = 186 and s = 188 (tau * 54 * ln 2 = 187.1), and exp(s / tau)
        # overflows between s = 3540 and s = 3560 (tau * 709.78 = 3548.9)
        instances = basis_instances([0], 4)

        def u_at(s):
            bank = PrototypeBank(modality=TEXT, vectors=np.tile(s * np.eye(4)[0], (3, 1)))
            return uncertainty_scores(instances, bank, EvidenceConfig())[0]

        assert u_at(186.0) < 1.0
        assert u_at(188.0) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert u_at(3540.0) == 1.0
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert u_at(3560.0) == 1.0

    def test_same_modality_bank_rejected(self):
        instances = basis_instances([0], 4)
        bank = PrototypeBank(modality=VISION, vectors=np.eye(4)[:2])
        with pytest.raises(ModalityMismatch):
            uncertainty_scores(instances, bank, EvidenceConfig())

    def test_dimension_mismatch(self):
        instances = basis_instances([0], 4)
        bank = PrototypeBank(modality=TEXT, vectors=np.eye(6)[:2])
        with pytest.raises(DimensionMismatch):
            uncertainty_scores(instances, bank, EvidenceConfig())
