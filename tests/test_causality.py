import math

import numpy as np
import pytest
from hypothesis import given, settings

from minent import (
    DimensionError,
    DomainError,
    JointObservation,
    conditionals_from_joint,
    exact_min_entropy_2var,
    exogenous_entropy_estimate,
    extended_entropy,
    infer_direction,
)
from minent.greedy import SOLVERS

from conftest import probability_vectors


def synthetic_joint(rng, n_x=4, n_e=2, max_h_e=0.6):
    """Joint built from a known cause-to-effect model.

    X uniform over n_x states, exogenous input over n_e states with entropy
    at most max_h_e bits, uniformly random mechanism f mapping (x, e) to
    one of n_x effect states.
    """
    # binary skew with entropy <= 0.6 bits needs p <= ~0.1461
    p_e = rng.uniform(0.01, 0.1461)
    dist_e = np.array([1.0 - p_e, p_e] + [0.0] * (n_e - 2))[:n_e]
    assert extended_entropy(dist_e) <= max_h_e
    mechanism = rng.integers(0, n_x, size=(n_x, n_e))
    joint = np.zeros((n_x, n_x))
    for x in range(n_x):
        for e in range(n_e):
            joint[x, mechanism[x, e]] += dist_e[e] / n_x
    return joint


class TestJointObservation:
    def test_from_matrix(self):
        obs = JointObservation.from_matrix([[0.3, 0.1], [0.2, 0.4]])
        assert obs.n_x == 2 and obs.n_y == 2
        assert obs.row_labels == (1, 2)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            JointObservation.from_matrix([[0.6, -0.1], [0.3, 0.2]])

    def test_rejects_bad_total(self):
        with pytest.raises(DomainError):
            JointObservation.from_matrix([[0.3, 0.1], [0.2, 0.2]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match=f"joint row 2 has non-finite entry {bad!r}"):
            JointObservation.from_matrix([[0.25, 0.25], [0.5, bad]])

    def test_prunes_unobserved_states_with_warning(self):
        with pytest.warns(UserWarning):
            obs = JointObservation.from_matrix(
                [[0.5, 0.0, 0.2], [0.3, 0.0, 0.0]]
            )
        assert obs.n_y == 2
        assert obs.col_labels == (1, 3)

    def test_from_samples(self):
        pairs = [(1, 1), (1, 1), (2, 2), (1, 2)]
        obs = JointObservation.from_samples(pairs)
        assert obs.joint == pytest.approx(
            np.array([[0.5, 0.25], [0.0, 0.25]])
        )

    def test_from_samples_empty(self):
        with pytest.raises(DomainError):
            JointObservation.from_samples([])


class TestConditionals:
    def test_deterministic_bijection(self):
        obs = JointObservation.from_matrix([[0.5, 0.0], [0.0, 0.5]])
        given_y = conditionals_from_joint(obs, 2)
        assert given_y[0].probs == (1.0, 0.0)
        assert given_y[1].probs == (0.0, 1.0)

    def test_independent_joint(self):
        obs = JointObservation.from_matrix([[0.25, 0.25], [0.25, 0.25]])
        given_y = conditionals_from_joint(obs, 2)
        assert given_y[0].probs == (0.5, 0.5)
        assert given_y[1].probs == (0.5, 0.5)

    def test_column_normalization(self):
        obs = JointObservation.from_matrix([[0.3, 0.1], [0.2, 0.4]])
        given_y = conditionals_from_joint(obs, 2)
        assert given_y[0].probs == pytest.approx((0.6, 0.4), abs=1e-12)
        assert given_y[1].probs == pytest.approx((0.2, 0.8), abs=1e-12)

    def test_row_normalization(self):
        obs = JointObservation.from_matrix([[0.3, 0.1], [0.2, 0.4]])
        given_x = conditionals_from_joint(obs, 1)
        assert given_x[0].probs == pytest.approx((0.75, 0.25), abs=1e-12)
        assert given_x[1].probs == pytest.approx((1 / 3, 2 / 3), abs=1e-12)

    def test_bad_axis(self):
        obs = JointObservation.from_matrix([[0.5, 0.5]])
        with pytest.raises(DimensionError):
            conditionals_from_joint(obs, 3)


class TestExogenousEstimate:
    def test_point_mass_conditionals_need_no_randomness(self):
        assert exogenous_entropy_estimate([[1.0, 0.0], [0.0, 1.0]]) == 0.0

    def test_identical_conditionals_cost_their_entropy(self):
        p = [0.7, 0.2, 0.1]
        assert exogenous_entropy_estimate([p, p]) == pytest.approx(
            extended_entropy(p), abs=1e-12
        )

    def test_hand_traced_pair(self):
        # couple [0.6, 0.4] with [0.2, 0.8]: masses 0.6, 0.2, 0.2
        estimate = exogenous_entropy_estimate([[0.6, 0.4], [0.2, 0.8]], "alg1")
        assert estimate == pytest.approx(1.3709505944546687, abs=1e-9)

    def test_unknown_solver(self):
        with pytest.raises(DomainError):
            exogenous_entropy_estimate([[0.5, 0.5], [0.5, 0.5]], "alg3")

    def test_unknown_solver_names_the_registry(self, monkeypatch):
        message = r"^unknown solver 'alg3'; use 'alg1' or 'alg2'$"
        with pytest.raises(DomainError, match=message):
            exogenous_entropy_estimate([[0.5, 0.5], [0.5, 0.5]], "alg3")
        monkeypatch.setitem(SOLVERS, "alg9", SOLVERS["alg1"])
        with pytest.raises(DomainError, match="use 'alg1' or 'alg2' or 'alg9'$"):
            exogenous_entropy_estimate([[0.5, 0.5], [0.5, 0.5]], "alg3")


class TestInferDirection:
    def test_bijective_deterministic_is_undecided(self):
        obs = JointObservation.from_matrix([[0.5, 0.0], [0.0, 0.5]])
        report = infer_direction(obs)
        assert report.exo_x_to_y == 0.0
        assert report.exo_y_to_x == 0.0
        assert report.verdict == "undecided"

    def test_exact_independence_is_undecided_with_diagnostic(self):
        obs = JointObservation.from_matrix(
            [[0.12, 0.28], [0.18, 0.42]]
        )  # outer([0.4, 0.6], [0.3, 0.7])
        report = infer_direction(obs)
        assert report.verdict == "undecided"
        assert report.score_x_to_y == pytest.approx(
            report.score_y_to_x, abs=1e-12
        )
        assert "factorizes" in report.diagnostic

    def test_worked_asymmetric_instance(self):
        obs = JointObservation.from_matrix([[0.3, 0.1], [0.2, 0.4]])
        report = infer_direction(obs, solver="alg1")
        assert report.h_x == pytest.approx(0.9709505944546686, abs=1e-9)
        assert report.h_y == pytest.approx(1.0, abs=1e-12)
        assert report.exo_x_to_y == pytest.approx(1.188721875540867, abs=1e-9)
        assert report.exo_y_to_x == pytest.approx(1.3709505944546687, abs=1e-9)
        assert report.score_x_to_y == pytest.approx(
            report.h_x + report.exo_x_to_y, abs=1e-12
        )
        assert report.score_y_to_x == pytest.approx(
            report.h_y + report.exo_y_to_x, abs=1e-12
        )
        assert report.verdict == "XtoY"

    def test_margin_turns_close_call_undecided(self):
        obs = JointObservation.from_matrix([[0.3, 0.1], [0.2, 0.4]])
        report = infer_direction(obs, margin=1.0, solver="alg1")
        assert report.verdict == "undecided"
        assert "margin" in report.diagnostic

    def test_negative_margin_rejected(self):
        obs = JointObservation.from_matrix([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(DomainError):
            infer_direction(obs, margin=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_margin_rejected(self, bad):
        obs = JointObservation.from_matrix([[0.3, 0.1], [0.2, 0.4]])
        with pytest.raises(DomainError, match=f"margin has non-finite entry {bad!r}"):
            infer_direction(obs, margin=bad)

    def test_non_square_joint(self):
        obs = JointObservation.from_matrix(
            [[0.2, 0.1], [0.1, 0.2], [0.25, 0.15]]
        )
        report = infer_direction(obs)
        assert report.verdict in {"XtoY", "YtoX", "undecided"}

    @pytest.mark.filterwarnings("ignore:pruned states")
    def test_scores_decompose(self, rng):
        for _ in range(5):
            joint = synthetic_joint(rng)
            obs = JointObservation.from_matrix(joint)
            report = infer_direction(obs)
            p_x = obs.joint.sum(axis=1)
            p_y = obs.joint.sum(axis=0)
            assert report.h_x == pytest.approx(extended_entropy(p_x), abs=1e-12)
            assert report.h_y == pytest.approx(extended_entropy(p_y), abs=1e-12)
            estimate = exogenous_entropy_estimate(
                conditionals_from_joint(obs, 1)
            )
            assert report.exo_x_to_y == pytest.approx(estimate, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:pruned states")
    def test_relabeling_invariance(self, rng):
        joint = synthetic_joint(rng)
        obs = JointObservation.from_matrix(joint)
        base = infer_direction(obs)
        row_perm = rng.permutation(joint.shape[0])
        col_perm = rng.permutation(joint.shape[1])
        shuffled = JointObservation.from_matrix(joint[np.ix_(row_perm, col_perm)])
        moved = infer_direction(shuffled)
        for attr in ("h_x", "h_y", "exo_x_to_y", "exo_y_to_x"):
            assert getattr(moved, attr) == pytest.approx(
                getattr(base, attr), abs=1e-9
            )

    def test_exogenous_floor_against_oracle(self, rng):
        # binary conditioning variable: the greedy estimate sits above the
        # exact minimum, which sits above the best single conditional
        for _ in range(10):
            raw = rng.dirichlet(np.ones(8)).reshape(4, 2)
            obs = JointObservation.from_matrix(raw)
            conditionals = conditionals_from_joint(obs, 2)
            estimate = exogenous_entropy_estimate(conditionals)
            _, exact = exact_min_entropy_2var(
                conditionals[0], conditionals[1]
            )
            floor = max(map(extended_entropy, conditionals))
            assert estimate >= exact - 1e-9
            assert exact >= floor - 1e-9

    @given(probs=probability_vectors(min_n=2, max_n=4))
    @settings(max_examples=60, deadline=None)
    def test_exogenous_at_least_lower_bound(self, probs):
        n = len(probs)
        joint = np.outer(probs, np.ones(n) / n)
        # perturb away from independence, keep rows positive
        joint[0] = joint[0][::-1]
        obs = JointObservation.from_matrix(joint / joint.sum())
        conditionals = conditionals_from_joint(obs, 1)
        estimate = exogenous_entropy_estimate(conditionals)
        assert estimate >= max(map(extended_entropy, conditionals)) - 1e-9

    def test_report_serialization_keys(self):
        obs = JointObservation.from_matrix([[0.3, 0.1], [0.2, 0.4]])
        payload = infer_direction(obs).to_dict()
        assert set(payload) == {
            "H_X",
            "H_Y",
            "H_exo_XtoY",
            "H_exo_YtoX",
            "score_XtoY",
            "score_YtoX",
            "margin",
            "verdict",
            "diagnostic",
        }

    @pytest.mark.filterwarnings("ignore:pruned states")
    def test_true_direction_preferred_on_synthetic_models(self, rng):
        wins = losses = 0
        for _ in range(60):
            obs = JointObservation.from_matrix(synthetic_joint(rng))
            verdict = infer_direction(obs).verdict
            if verdict == "XtoY":
                wins += 1
            elif verdict == "YtoX":
                losses += 1
        assert wins > losses
