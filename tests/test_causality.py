import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent import (
    DimensionError,
    DomainError,
    JointObservation,
    exact_min_entropy_2var,
    extended_entropy,
    infer_direction,
)
from minent import causality
from minent.greedy import SOLVERS

import reference_causality
from conftest import probability_vectors
from reference_causality import conditionals_from_joint, exogenous_entropy_estimate


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


def reference_observation(matrix):
    """The reference's observation of ``matrix``, whose conditionals the
    library's scores are built from; its pruning warning is dropped."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return reference_causality.JointObservation.from_matrix(matrix)


# Dropping rows 3 and 4, each at EPS_ZERO or below, leaves column 3 with
# no mass, though its 1.2e-12 kept it on the first pass; and transposed.
EMPTIED_COLUMN = [[0.3, 0.2, 0.0], [0.2, 0.2999999999988, 0.0], [0.0, 0.0, 6e-13], [0.0, 0.0, 6e-13]]
EMPTIED_ROW = [list(column) for column in zip(*EMPTIED_COLUMN)]


class TestJointObservation:
    def test_from_matrix(self):
        obs = JointObservation.from_matrix([[0.3, 0.1], [0.2, 0.4]])
        assert len(obs.joint) == 2 and len(obs.joint[0]) == 2
        assert obs.row_labels == (1, 2)

    def test_rejects_negative(self):
        with pytest.raises(DomainError, match=r"^negative probability -0\.1 in joint$"):
            JointObservation.from_matrix([[0.6, -0.1], [0.3, 0.2]])
        with pytest.raises(DomainError, match=r"^negative probability -0\.1 in joint$"):
            JointObservation.from_matrix(np.array([[0.6, -0.1], [0.3, 0.2]]))

    def test_rejects_bad_total(self):
        with pytest.raises(DomainError):
            JointObservation.from_matrix([[0.3, 0.1], [0.2, 0.2]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match=f"joint row 2 has non-finite entry {bad!r}"):
            JointObservation.from_matrix([[0.25, 0.25], [0.5, bad]])

    def test_prunes_unobserved_states_silently(self):
        # the labels are the one record of pruning; the CLI names them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obs = JointObservation.from_matrix(
                [[0.5, 0.0, 0.2], [0.3, 0.0, 0.0]]
            )
            rows_pruned = JointObservation.from_matrix(
                [[0.0, 0.0], [0.5, 0.2], [0.0, 0.0], [0.3, 0.0]]
            )
        assert len(obs.joint[0]) == 2
        assert obs.col_labels == (1, 3)
        assert obs.row_labels == (1, 2)
        assert rows_pruned.row_labels == (2, 4)
        assert rows_pruned.col_labels == (1, 2)
        assert rows_pruned.joint == ((0.5, 0.2), (0.3, 0.0))

    @pytest.mark.parametrize("matrix", [EMPTIED_COLUMN, EMPTIED_ROW], ids=["rows-empty-a-column", "columns-empty-a-row"])
    def test_pruning_repeats_until_kept_states_carry_mass(self, matrix):
        # the first pass keeps the state whose 1.2e-12 lies in the two
        # states it drops; the second pass drops that state too
        obs = JointObservation.from_matrix(matrix)
        assert obs.row_labels == (1, 2) and obs.col_labels == (1, 2)
        kept = ((0.3, 0.2), (0.2, 0.2999999999988))
        assert obs.joint == (kept if matrix is EMPTIED_COLUMN else tuple(zip(*kept)))
        for solver in SOLVERS:
            report = infer_direction(obs, solver=solver)
            assert report.verdict == "undecided"
            assert report.score_x_to_y == report.score_y_to_x

    def test_from_samples(self):
        pairs = [(1, 1), (1, 1), (2, 2), (1, 2)]
        obs = JointObservation.from_samples(pairs)
        expected = [[0.5, 0.25], [0.0, 0.25]]
        assert len(obs.joint) == len(expected)
        for row, want in zip(obs.joint, expected):
            assert row == pytest.approx(want)

    def test_from_samples_empty(self):
        with pytest.raises(DomainError):
            JointObservation.from_samples([])

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.3, 0.1], [0.2, 0.4]],
            ((0.3, 0.1), (0.2, 0.4)),
            np.array([[0.3, 0.1], [0.2, 0.4]]),
            [np.array([0.3, 0.1]), [0.2, 0.4]],
            [[1, 0], [0, 0]],
        ],
        ids=["lists", "tuples", "array", "mixed", "ints"],
    )
    def test_joint_is_a_tuple_of_float_rows(self, matrix):
        obs = JointObservation.from_matrix(matrix)
        assert type(obs.joint) is tuple
        assert all(type(row) is tuple for row in obs.joint)
        assert all(type(v) is float for row in obs.joint for v in row)
        assert obs.joint == tuple(
            tuple(float(v) for v in row) for row in np.asarray(matrix)[:len(obs.joint), :len(obs.joint[0])]
        )

    @pytest.mark.parametrize(
        "matrix, lengths",
        [
            ([[0.5, 0.25], [0.25]], [2, 1]),
            ([[0.5], [0.25, 0.25]], [1, 2]),
            ([[], [1.0]], [0, 1]),
            ([[0.25, 0.25], [0.25, 0.25], [0.1, 0.1, 0.1]], [2, 2, 3]),
        ],
    )
    def test_rejects_ragged_rows_naming_their_lengths(self, matrix, lengths):
        with pytest.raises(DimensionError, match=f"^joint row lengths differ: {re.escape(str(lengths))}$"):
            JointObservation.from_matrix(matrix)

    @pytest.mark.parametrize("matrix", [[], [0.5, 0.5], 1.0, [[[0.5], [0.5]]], np.ones((1, 2, 1)) / 2])
    def test_rejects_other_than_two_dimensions(self, matrix):
        with pytest.raises(DimensionError, match="^joint observation must be a 2-D matrix$"):
            JointObservation.from_matrix(matrix)

    @pytest.mark.parametrize("matrix", [[[]], [[], []]])
    def test_rejects_empty(self, matrix):
        with pytest.raises(DomainError, match="^joint observation is empty$"):
            JointObservation.from_matrix(matrix)


class TestConditionals:
    """The conditionals of the reference, which the library equals bit for bit."""

    def test_deterministic_bijection(self):
        obs = reference_observation([[0.5, 0.0], [0.0, 0.5]])
        given_y = conditionals_from_joint(obs, 2)
        assert given_y[0].probs == (1.0, 0.0)
        assert given_y[1].probs == (0.0, 1.0)

    def test_independent_joint(self):
        obs = reference_observation([[0.25, 0.25], [0.25, 0.25]])
        given_y = conditionals_from_joint(obs, 2)
        assert given_y[0].probs == (0.5, 0.5)
        assert given_y[1].probs == (0.5, 0.5)

    def test_column_normalization(self):
        obs = reference_observation([[0.3, 0.1], [0.2, 0.4]])
        given_y = conditionals_from_joint(obs, 2)
        assert given_y[0].probs == pytest.approx((0.6, 0.4), abs=1e-12)
        assert given_y[1].probs == pytest.approx((0.2, 0.8), abs=1e-12)

    def test_row_normalization(self):
        obs = reference_observation([[0.3, 0.1], [0.2, 0.4]])
        given_x = conditionals_from_joint(obs, 1)
        assert given_x[0].probs == pytest.approx((0.75, 0.25), abs=1e-12)
        assert given_x[1].probs == pytest.approx((1 / 3, 2 / 3), abs=1e-12)


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
        obs = JointObservation.from_matrix([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(DomainError):
            infer_direction(obs, solver="alg3")

    def test_unknown_solver_names_the_registry(self, monkeypatch):
        obs = JointObservation.from_matrix([[0.25, 0.25], [0.25, 0.25]])
        message = r"^unknown solver 'alg3'; use 'alg1' or 'alg2'$"
        with pytest.raises(DomainError, match=message):
            infer_direction(obs, solver="alg3")
        monkeypatch.setitem(SOLVERS, "alg9", SOLVERS["alg1"])
        with pytest.raises(DomainError, match="use 'alg1' or 'alg2' or 'alg9'$"):
            infer_direction(obs, solver="alg3")


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

    @pytest.mark.parametrize(
        "build, shape",
        [
            (lambda: JointObservation.from_matrix([[0.5, 0.5]]), "1x2"),
            (lambda: JointObservation.from_matrix([[0.5], [0.25], [0.25]]), "3x1"),
            (lambda: JointObservation.from_matrix([[0.5, 0.0], [0.5, 0.0]]), "2x1"),
            (lambda: JointObservation.from_matrix([[0.0, 0.0], [0.0, 1.0]]), "1x1"),
            (lambda: JointObservation.from_samples([(3, 1), (3, 2), (3, 1)]), "1x2"),
            (lambda: JointObservation.from_samples([(1, 5), (2, 5)]), "2x1"),
        ],
        ids=["one-row", "one-column", "pruned-to-one-column", "pruned-to-one-cell",
             "samples-one-x", "samples-one-y"],
    )
    def test_one_observed_state_rejected_naming_the_shape(self, build, shape):
        obs = build()
        message = (
            f"^joint observation is {shape} after pruning; a causal direction "
            "needs at least two observed states of X and of Y$"
        )
        for solver in SOLVERS:
            with pytest.raises(DomainError, match=message):
                infer_direction(obs, solver=solver)

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

    def test_scores_decompose(self, rng):
        for _ in range(5):
            joint = synthetic_joint(rng)
            obs = JointObservation.from_matrix(joint)
            report = infer_direction(obs)
            p_x = [sum(row) for row in obs.joint]
            p_y = [sum(column) for column in zip(*obs.joint)]
            assert report.h_x == pytest.approx(extended_entropy(p_x), abs=1e-12)
            assert report.h_y == pytest.approx(extended_entropy(p_y), abs=1e-12)
            estimate = exogenous_entropy_estimate(
                conditionals_from_joint(reference_observation(joint), 1)
            )
            assert report.exo_x_to_y == pytest.approx(estimate, abs=1e-12)

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
            obs = reference_observation(raw)
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
        obs = reference_observation(joint / joint.sum())
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


# States per axis around numpy's pairwise-sum thresholds (in order below
# 8 terms, eight accumulators up to 128, split above): the reference's
# in-order sums must hold their order where numpy's plain sum would not.
AXIS_SIZES = [1, 2, 3, 7, 8, 9, 16, 129, 131]
SMALL_AXIS_SIZES = [1, 2, 3, 7, 8, 9]


@st.composite
def joint_matrices(draw, axis_sizes=None):
    """A joint as a numpy array: planted, random, dyadic, independent or
    nearly independent.

    Random and dyadic joints may carry all-zero rows and columns; dyadic
    ones have many exactly equal cells and sum to exactly 1. Each axis
    draws its states from ``axis_sizes`` when given; otherwise from
    ``AXIS_SIZES``, with at most one axis above 16 states, which keeps the
    solvers quick.
    """
    kind = draw(st.sampled_from(["planted", "random", "dyadic", "independent", "near-independent"]))
    if axis_sizes is None:
        n_x = draw(st.sampled_from(AXIS_SIZES))
        n_y = draw(st.sampled_from(AXIS_SIZES if n_x <= 16 else SMALL_AXIS_SIZES))
    else:
        n_x, n_y = draw(axis_sizes), draw(axis_sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "planted":
        p_x = rng.dirichlet(np.ones(n_x))
        p_e = rng.dirichlet(np.ones(draw(st.integers(1, 3))))
        joint = np.zeros((n_x, n_y))
        for x, mass in enumerate(p_x):
            for e, weight in enumerate(p_e):
                joint[x, rng.integers(n_y)] += mass * weight
        return joint
    if kind == "independent":
        return np.outer(rng.dirichlet(np.ones(n_x)), rng.dirichlet(np.ones(n_y)))
    if kind == "near-independent":
        # tiny cells and nudges around the diagnostic's atol of 1e-12
        p_y = rng.dirichlet(np.ones(n_y))
        p_y[-1] *= 10.0 ** -draw(st.integers(0, 12))
        joint = np.outer(rng.dirichlet(np.ones(n_x)), p_y / p_y.sum())
        nudge = draw(st.sampled_from([1e-13, 9e-13, 2e-12, 1e-11, 1e-6]))
        joint = np.maximum(joint + nudge * rng.choice([-1.0, 0.0, 1.0], size=joint.shape), 0.0)
        return joint / joint.sum()
    if kind == "random":
        joint = rng.random((n_x, n_y))
    else:
        joint = rng.choice([0.0, 1.0, 1.0, 2.0, 4.0], size=(n_x, n_y))
    joint[rng.random((n_x, n_y)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if draw(st.booleans()):
        joint[rng.integers(n_x), :] = 0.0
    if draw(st.booleans()):
        joint[:, rng.integers(n_y)] = 0.0
    if joint.sum() == 0.0:
        joint[0, 0] = 1.0
    if kind == "dyadic":
        total = int(joint.sum())
        joint[np.unravel_index(np.argmax(joint), joint.shape)] += (1 << (total - 1).bit_length()) - total
    return joint / joint.sum()


SAMPLE_PAIRS = st.lists(
    st.tuples(st.integers(-2, 9), st.integers(-2, 9)), min_size=1, max_size=60
)


def report_outcome(module, build, margin=0.0, solver="alg2"):
    """Everything observable about one construction and inference.

    Floats are compared by ``float.hex``; an exception becomes its type
    name and message. Warnings raised on the way are recorded too.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            obs = build(module)
            report = module.infer_direction(obs, margin=margin, solver=solver)
        except (ValueError, TypeError) as exc:
            result = ("raised", type(exc).__name__, str(exc))
        else:
            rows = obs.joint.tolist() if hasattr(obs.joint, "tolist") else obs.joint
            fields = ("h_x", "h_y", "exo_x_to_y", "exo_y_to_x", "score_x_to_y", "score_y_to_x", "margin")
            result = (
                [getattr(report, name).hex() for name in fields],
                report.verdict,
                report.diagnostic,
                obs.row_labels,
                obs.col_labels,
                [[v.hex() for v in row] for row in rows],
            )
    return result, [str(w.message) for w in caught]


ONE_STATE = re.compile(r"^joint observation is (\d+)x(\d+) after pruning; ")
NEGATIVE = re.compile(r"^negative probability (\S+) in joint$")


def as_reference_words(outcome):
    """The outcome in the reference's words: the library rewords three
    errors (one observed state, ragged rows, the negative value)."""
    result, caught = outcome
    if result[0] != "raised":
        return outcome
    _, kind, message = result
    if ONE_STATE.match(message):
        return ("raised", "DomainError", "need at least two marginals to couple"), caught
    if message.startswith("joint row lengths differ: "):
        return ("raised", "ValueError", "inhomogeneous"), caught
    negative = NEGATIVE.match(message)
    if negative:
        return ("raised", kind, f"negative probability np.float64({negative[1]}) in joint"), caught
    return outcome


def in_library_terms(outcome):
    """The reference's outcome with numpy's long message for a ragged
    matrix cut to its key word, and without its pruning warning: the
    library records pruning in the labels alone."""
    result, caught = outcome
    caught = [message for message in caught if not message.startswith("pruned states")]
    if result[0] == "raised" and "inhomogeneous" in result[2]:
        return ("raised", result[1], "inhomogeneous"), caught
    return result, caught


class TestAgainstReference:
    """Same reports, joints, labels, warnings and errors as the numpy form,
    but for its pruning warning, which the labels replace."""

    def assert_same(self, build, margin=0.0, solver="alg2"):
        fast = report_outcome(causality, build, margin, solver)
        reference = report_outcome(reference_causality, build, margin, solver)
        assert as_reference_words(fast) == in_library_terms(reference)
        return fast

    @given(matrix=joint_matrices(), solver=st.sampled_from(["alg1", "alg2"]),
           margin=st.sampled_from([0.0, 1e-9, 0.05]))
    @settings(max_examples=200, deadline=None)
    def test_same_on_joint_matrices(self, matrix, solver, margin):
        rows = matrix.tolist()
        fast = self.assert_same(lambda m: m.JointObservation.from_matrix(rows), margin, solver)
        from_array = report_outcome(causality, lambda m: m.JointObservation.from_matrix(matrix), margin, solver)
        assert from_array == fast

    @given(pairs=SAMPLE_PAIRS, solver=st.sampled_from(["alg1", "alg2"]))
    @settings(max_examples=150, deadline=None)
    def test_same_on_samples(self, pairs, solver):
        self.assert_same(lambda m: m.JointObservation.from_samples(pairs), solver=solver)

    @given(
        matrix=joint_matrices(),
        defect=st.sampled_from(["negative", "ragged", "nan", "total", "empty-row", "flat"]),
        where=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_errors_on_defective_matrices(self, matrix, defect, where):
        rows = matrix.tolist()
        i = where % len(rows)
        j = where % len(rows[0])
        if defect == "negative":
            rows[i][j] = -rows[i][j] - 0.1
        elif defect == "ragged":
            rows[i] = rows[i] + [0.0]
        elif defect == "nan":
            rows[i][j] = math.nan
        elif defect == "total":
            rows = [[2.0 * v for v in row] for row in rows]
        elif defect == "empty-row":
            rows = [[] for _ in rows]
        else:
            rows = rows[i]
        self.assert_same(lambda m: m.JointObservation.from_matrix(rows))

    @pytest.mark.parametrize("matrix", [EMPTIED_COLUMN, EMPTIED_ROW], ids=["rows-empty-a-column", "columns-empty-a-row"])
    def test_same_when_pruning_empties_a_kept_state(self, matrix):
        self.assert_same(lambda m: m.JointObservation.from_matrix(matrix))

    def test_same_on_planted_models(self, rng):
        for n_x in (2, 3, 4, 8, 9):
            for _ in range(20):
                joint = synthetic_joint(rng, n_x=n_x, n_e=3)
                rows = joint.tolist()
                self.assert_same(lambda m: m.JointObservation.from_matrix(rows))


MIRRORED = {"XtoY": "YtoX", "YtoX": "XtoY", "undecided": "undecided"}


@given(matrix=joint_matrices(st.integers(2, 33)), solver=st.sampled_from(["alg1", "alg2"]),
       margin=st.sampled_from([0.0, 1e-9]))
@settings(max_examples=150, deadline=None)
def test_transposing_swaps_the_scores_exactly(matrix, solver, margin):
    """A row of the joint is a column of its transpose, summed in the same
    order, so the transpose's report is the mirror image, bit for bit."""
    obs = JointObservation.from_matrix(matrix.tolist())
    flipped = JointObservation.from_matrix(matrix.T.tolist())
    assert flipped.joint == tuple(zip(*obs.joint))
    assert (flipped.row_labels, flipped.col_labels) == (obs.col_labels, obs.row_labels)
    if min(len(obs.joint), len(obs.joint[0])) < 2:
        return
    report = infer_direction(obs, margin, solver)
    mirror = infer_direction(flipped, margin, solver)
    pairs = [("h_x", "h_y"), ("exo_x_to_y", "exo_y_to_x"), ("score_x_to_y", "score_y_to_x")]
    for one, other in pairs:
        assert getattr(mirror, one).hex() == getattr(report, other).hex()
        assert getattr(mirror, other).hex() == getattr(report, one).hex()
    assert mirror.verdict == MIRRORED[report.verdict]
    assert mirror.diagnostic == report.diagnostic
