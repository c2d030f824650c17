import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent import (
    EPS_MARG,
    DimensionError,
    DomainError,
    JointObservation,
    Marginal,
    SparseCoupling,
    bound_report,
    certify_local_optimum,
    exact_min_entropy_2var,
    extended_entropy,
    greedy_coupling,
    greedy_coupling_two_phase,
    infer_direction,
    marginalize,
)
from minent.core import coerce_marginals, sorted_sweep

from conftest import marginal_families, probability_vectors, tied_and_tiny_families
from reference_bounds import sort_decreasing, total_variation_sorted
from reference_entropy import reference_entropy


class TestMarginal:
    def test_accepts_valid(self):
        p = Marginal.of([0.2, 0.5, 0.3])
        assert len(p) == 3
        assert list(p) == [0.2, 0.5, 0.3]

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Marginal.of([0.5, 0.6, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(DomainError):
            Marginal.of([0.5, 0.4])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Marginal.of([])

    def test_entries_become_floats_on_construction(self):
        p = Marginal((1, 0))
        assert p.probs == (1.0, 0.0)
        assert [type(v) for v in p.probs] == [float, float]
        assert Marginal([0.5, 0.5]).probs == (0.5, 0.5)

    def test_bound_report_of_integer_marginals_writes_floats(self):
        doc = bound_report([Marginal((1, 0)), Marginal((0, 1))]).to_dict()
        rows = doc["sorted_marginals"] + doc["residuals"] + [doc["pointwise_min"]]
        assert {type(v) for row in rows for v in row} == {float}


def shifted_pair(delta):
    p = (0.3, 0.7)
    return [[v * (1 - delta) for v in p], [v * (1 + delta) for v in p]]


# every library entry point that takes a set of marginals goes through
# coerce_marginals; each keeps its own message for too few marginals
MARGINAL_SET_CALLERS = [
    greedy_coupling,
    greedy_coupling_two_phase,
    bound_report,
    lambda ms: exact_min_entropy_2var(*ms),
]


class TestCoerceMarginals:
    def test_returns_marginals(self):
        ms = coerce_marginals([[0.5, 0.5], Marginal.of([0.2, 0.8])])
        assert ms == (Marginal.of([0.5, 0.5]), Marginal.of([0.2, 0.8]))

    @pytest.mark.parametrize("caller", MARGINAL_SET_CALLERS)
    def test_ragged_rejected(self, caller):
        with pytest.raises(DimensionError, match=r"marginal lengths differ: \[2, 3\]"):
            caller([[0.5, 0.5], [0.2, 0.3, 0.5]])

    @pytest.mark.parametrize("caller", MARGINAL_SET_CALLERS)
    def test_totals_apart_rejected(self, caller):
        # each total is within EPS_SUM of 1, but they are 1.8e-9 apart
        with pytest.raises(DomainError, match="totals differ"):
            caller(shifted_pair(9e-10))

    @pytest.mark.parametrize("caller", MARGINAL_SET_CALLERS)
    def test_totals_within_half_eps_marg_accepted(self, caller):
        family = shifted_pair(2e-10)
        assert math.fsum(family[1]) - math.fsum(family[0]) <= EPS_MARG / 2
        caller(family)

    @pytest.mark.parametrize(
        "caller, marginals, message",
        [
            (greedy_coupling, [[1.0]], "need at least two marginals to couple"),
            (bound_report, [[1.0]], "need at least two marginals for a bound report"),
        ],
    )
    def test_too_few_keeps_caller_message(self, caller, marginals, message):
        with pytest.raises(DomainError, match=message):
            caller(marginals)


class TestSparseCoupling:
    def test_valid_diagonal(self):
        c = SparseCoupling(2, (2, 2), {(1, 1): 0.5, (2, 2): 0.5})
        assert c.num_entries == 2
        assert tuple(c.entries.values()) == (0.5, 0.5)

    def test_rejects_zero_mass(self):
        with pytest.raises(DomainError):
            SparseCoupling(2, (2, 2), {(1, 1): 1.0, (2, 2): 0.0})

    def test_rejects_bad_total(self):
        with pytest.raises(DomainError):
            SparseCoupling(2, (2, 2), {(1, 1): 0.5, (2, 2): 0.4})

    def test_rejects_out_of_range_state(self):
        with pytest.raises(DomainError):
            SparseCoupling(2, (2, 2), {(1, 3): 0.5, (2, 2): 0.5})

    def test_rejects_wrong_arity(self):
        with pytest.raises(DimensionError):
            SparseCoupling(2, (2, 2), {(1, 1, 1): 1.0})

    def test_rejects_single_variable(self):
        with pytest.raises(DomainError):
            SparseCoupling(1, (2,), {(1,): 1.0})

    def test_rejects_cardinality_count_other_than_num_vars(self):
        with pytest.raises(DimensionError, match="2 variables but 3 cardinalities"):
            SparseCoupling(2, (2, 2, 2), {(1, 1): 1.0})

    def test_rejects_cardinality_below_one(self):
        with pytest.raises(DomainError, match="cardinalities must be positive"):
            SparseCoupling(2, (2, 0), {(1, 1): 1.0})

    def test_rejects_no_entries(self):
        with pytest.raises(DomainError, match="coupling has no entries"):
            SparseCoupling(2, (2, 2), {})

    def test_rejects_assignment_order_off_the_support(self):
        entries = {(1, 1): 0.5, (2, 2): 0.5}
        with pytest.raises(DomainError, match="does not cover the coupling support"):
            SparseCoupling(2, (2, 2), entries, (((1, 1), 0.5),))
        with pytest.raises(DomainError, match="does not cover the coupling support"):
            SparseCoupling(2, (2, 2), entries, (((1, 1), 0.5), ((1, 2), 0.5)))
        # a cell listed twice, and masses other than the entries'
        with pytest.raises(DomainError, match="list each cell once, with its mass"):
            SparseCoupling(2, (2, 2), entries, (((1, 1), 0.5), ((2, 2), 0.5), ((1, 1), 0.5)))
        with pytest.raises(DomainError, match="list each cell once, with its mass"):
            SparseCoupling(2, (2, 2), entries, (((2, 2), 0.9), ((1, 1), 0.1)))
        # a valid order reorders the entries
        coupling = SparseCoupling(2, (2, 2), entries, (((2, 2), 0.5), ((1, 1), 0.5)))
        assert list(coupling.entries) == [(2, 2), (1, 1)]
        assert coupling.assignment_order == (((2, 2), 0.5), ((1, 1), 0.5))


def records(rows):
    """One instance of each of the package's seven record types."""
    coupling, trace = greedy_coupling(rows)
    joint = JointObservation.from_matrix([[v / 2 for v in row] for row in rows])
    return {
        "Marginal": Marginal(rows[0]),
        "SparseCoupling": coupling,
        "GreedyTrace": trace,
        "Certificate": certify_local_optimum(coupling, trace),
        "BoundReport": bound_report(rows, achieved=extended_entropy(coupling)),
        "JointObservation": joint,
        "DirectionReport": infer_direction(joint),
    }


WORKED = [[0.6, 0.4], [0.5, 0.5]]
OTHER = [[0.7, 0.3], [0.5, 0.5]]

# Each type's fields in order and its repr of WORKED, as the frozen
# dataclasses these types once were printed them.
RECORD_FIELDS = {
    "Marginal": ["probs"],
    "SparseCoupling": ["num_vars", "cardinalities", "entries", "assignment_order"],
    "GreedyTrace": ["assignments", "closed", "iterations", "phase_boundary"],
    "Certificate": ["u", "residual_norm", "max_reconstruction_error"],
    "BoundReport": [
        "m", "sorted_marginals", "pointwise_min", "residuals", "residual_total",
        "residual_entropies", "lower_bound", "slack", "upper_bound", "achieved",
    ],
    "JointObservation": ["joint", "row_labels", "col_labels"],
    "DirectionReport": [
        "h_x", "h_y", "exo_x_to_y", "exo_y_to_x", "score_x_to_y", "score_y_to_x",
        "margin", "verdict", "diagnostic",
    ],
}
RECORD_REPRS = {
    "Marginal": "Marginal(probs=(0.6, 0.4))",
    "SparseCoupling": (
        "SparseCoupling(num_vars=2, cardinalities=(2, 2), entries={(1, 1): 0.5, "
        "(2, 2): 0.4, (1, 2): 0.09999999999999998}, assignment_order=(((1, 1), 0.5), "
        "((2, 2), 0.4), ((1, 2), 0.09999999999999998)))"
    ),
    "GreedyTrace": (
        "GreedyTrace(assignments=(((1, 1), 0.5), ((2, 2), 0.4), ((1, 2), "
        "0.09999999999999998)), closed=(2, 1, 3), iterations=(1, 2, 3), phase_boundary=None)"
    ),
    "Certificate": (
        "Certificate(u=((-2.3219280948873626, -0.3219280948873622), (2.3219280948873626, "
        "0.0)), residual_norm=0.0, max_reconstruction_error=0.0)"
    ),
    "BoundReport": (
        "BoundReport(m=2, sorted_marginals=((0.6, 0.4), (0.5, 0.5)), pointwise_min=(0.5, "
        "0.4), residuals=((0.09999999999999998, 0.0), (0.0, 0.09999999999999998)), "
        "residual_total=0.09999999999999998, residual_entropies=(0.3321928094887362, "
        "0.3321928094887362), lower_bound=1.0, slack=0.9999999999999999, upper_bound=2.0, "
        "achieved=1.360964047443681)"
    ),
    "JointObservation": (
        "JointObservation(joint=((0.3, 0.2), (0.25, 0.25)), row_labels=(1, 2), "
        "col_labels=(1, 2))"
    ),
    "DirectionReport": (
        "DirectionReport(h_x=1.0, h_y=0.9927744539878083, exo_x_to_y=1.360964047443681, "
        "exo_y_to_x=1.0639130207173026, score_x_to_y=2.360964047443681, "
        "score_y_to_x=2.056687474705111, margin=0.0, verdict='YtoX', diagnostic=None)"
    ),
}


@pytest.mark.parametrize("kind", list(RECORD_FIELDS))
class TestRecordSemantics:
    """What the seven record types kept from the frozen dataclasses they were."""

    def test_repr(self, kind):
        assert repr(records(WORKED)[kind]) == RECORD_REPRS[kind]

    def test_equality(self, kind):
        record, again, other = records(WORKED)[kind], records(WORKED)[kind], records(OTHER)[kind]
        assert record is not again
        assert record == again and not record != again
        assert record != other
        assert record != object()
        assert (record == object()) is False

    def test_hash(self, kind):
        record, again = records(WORKED)[kind], records(WORKED)[kind]
        if kind == "SparseCoupling":
            # its entries are a dict
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(record)
        else:
            assert hash(record) == hash(again)
            assert len({record, again}) == 1

    def test_fields_cannot_be_assigned_or_deleted(self, kind):
        record = records(WORKED)[kind]
        for name in [*RECORD_FIELDS[kind], "not_a_field"]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert repr(record) == RECORD_REPRS[kind]

    def test_keyword_construction(self, kind):
        record = records(WORKED)[kind]
        fields = {name: getattr(record, name) for name in RECORD_FIELDS[kind]}
        rebuilt = type(record)(**fields)
        assert rebuilt == record
        assert repr(rebuilt) == RECORD_REPRS[kind]
        assert type(record)(*fields.values()) == record

    def test_missing_or_extra_argument(self, kind):
        record = records(WORKED)[kind]
        cls = type(record)
        fields = {name: getattr(record, name) for name in RECORD_FIELDS[kind]}
        first = RECORD_FIELDS[kind][0]
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{first}'"):
            cls(**{k: v for k, v in fields.items() if k != first})
        with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
            cls(**fields, extra=None)
        with pytest.raises(TypeError, match="positional arguments but"):
            cls(*fields.values(), None)

    def test_pickle_and_deepcopy_round_trips(self, kind):
        record = records(WORKED)[kind]
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert copied == record and copied is not record
            assert repr(copied) == RECORD_REPRS[kind]
            with pytest.raises(AttributeError):
                setattr(copied, RECORD_FIELDS[kind][0], None)


def test_trace_steps_survive_pickle_and_deepcopy():
    _, trace = greedy_coupling(WORKED)
    steps = trace.steps
    assert trace.steps == steps
    for copied in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
        assert copied == trace
        assert copied.steps == steps


# masses in [0, 1], subnormals and exact zeros included: every term
# -v log2 v is then nonnegative, so a relative comparison is meaningful
unit_masses = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from(
    [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0]
)


class TestExtendedEntropy:
    def test_uniform_binary(self):
        assert extended_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert extended_entropy([1.0]) == 0.0

    def test_signed_zeros(self):
        # a point mass gives -0.0 (the CLI prints it); no positive entry, +0.0
        assert signs([extended_entropy([1.0]), extended_entropy([0.0, 1.0])]) == [-1.0, -1.0]
        assert signs([extended_entropy([]), extended_entropy([0.0, -0.0])]) == [1.0, 1.0]

    def test_unnormalized_vector(self):
        # three terms, each -0.5*log2(0.5) = 0.5
        assert extended_entropy([0.5, 0.5, 0.5]) == pytest.approx(1.5, abs=1e-12)

    def test_zeros_contribute_nothing(self):
        assert extended_entropy([0.5, 0.0, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            extended_entropy([0.5, -0.5])

    @pytest.mark.parametrize("values", [[0.5, -0.5], np.array([0.5, -0.5]), {(1,): -0.5}])
    def test_negative_entry_named_as_a_float(self, values):
        with pytest.raises(DomainError, match=re.escape("negative entry -0.5 passed")):
            extended_entropy(values)

    def test_applies_to_all_mass_carriers(self):
        p = Marginal.of([0.5, 0.5])
        r = (0.5, 0.5)
        c = SparseCoupling(2, (2, 2), {(1, 1): 0.5, (2, 2): 0.5})
        assert extended_entropy(p) == extended_entropy(r) == extended_entropy(c)

    @given(probability_vectors())
    @settings(max_examples=100)
    def test_bounded_by_log_n(self, probs):
        h = extended_entropy(probs)
        assert -1e-9 <= h <= math.log2(len(probs)) + 1e-9

    @given(probability_vectors() | st.lists(unit_masses, max_size=80), st.randoms())
    @settings(max_examples=200)
    def test_permutation_invariant(self, probs, rand):
        shuffled = probs[:]
        rand.shuffle(shuffled)
        assert extended_entropy(shuffled) == extended_entropy(probs)

    def test_order_free_on_random_vectors(self):
        # a pairwise float sum depends on order: 484 of these 1,000 vectors
        # moved under numpy's; fsum rounds the exact sum once
        rng = np.random.default_rng(2026)
        moved = 0
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            xs = [float(v) for v in rng.dirichlet(np.ones(n))]
            ys = [xs[i] for i in rng.permutation(n)]
            moved += extended_entropy(xs) != extended_entropy(ys)
        assert moved == 0

    @given(st.lists(unit_masses, max_size=80))
    @settings(max_examples=200)
    def test_matches_numpy_reference(self, xs):
        assert math.isclose(extended_entropy(xs), reference_entropy(xs), rel_tol=1e-12)

    @given(marginal_families(max_n=12) | tied_and_tiny_families())
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_reference_on_solver_output(self, family):
        for solve in (greedy_coupling, greedy_coupling_two_phase):
            coupling, _ = solve(family)
            for carrier in (coupling, Marginal.of(family[0]), tuple(family[1])):
                assert math.isclose(
                    extended_entropy(carrier), reference_entropy(carrier), rel_tol=1e-12
                )

    @given(probability_vectors(), probability_vectors())
    @settings(max_examples=100)
    def test_additive_over_concatenation(self, v, w):
        assert extended_entropy(v + w) == pytest.approx(
            extended_entropy(v) + extended_entropy(w), abs=1e-10
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
class TestNonFiniteRejected:
    def test_marginal(self, bad):
        with pytest.raises(DomainError, match=f"marginal has non-finite entry {bad!r} at position 2"):
            Marginal.of([0.5, bad, 0.5])

    def test_sparse_coupling_mass(self, bad):
        with pytest.raises(DomainError, match=f"non-finite mass {bad!r} at \\(1, 1\\)"):
            SparseCoupling(2, (2, 2), {(1, 1): bad, (2, 2): 0.5})

    def test_extended_entropy(self, bad):
        with pytest.raises(DomainError, match=f"non-finite entry {bad!r} at position 1"):
            extended_entropy([bad, 1.0])


def signs(values):
    return [math.copysign(1.0, v) for v in values]


class TestSortedSweep:
    def test_worked_example(self):
        ranks, pmin = sorted_sweep([[0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
        assert ranks == [[1, 2, 0], [2, 0, 1]]
        assert pmin == [0.4, 0.3, 0.2]

    def test_ties_keep_state_order(self):
        ranks, pmin = sorted_sweep([[0.25] * 4, [0.125, 0.375, 0.125, 0.375]])
        assert ranks == [[0, 1, 2, 3], [1, 3, 0, 2]]
        assert pmin == [0.25, 0.25, 0.125, 0.125]

    def test_signed_zeros_tie_in_state_order(self):
        ranks, _ = sorted_sweep([[0.0, -0.0, 1.0, -0.0, 0.0]])
        assert ranks == [[2, 0, 1, 3, 4]]

    @pytest.mark.parametrize(
        "rows, kept",
        [
            ([[0.5, 0.5, 0.0], [0.5, 0.5, -0.0]], -1.0),
            ([[0.5, 0.5, -0.0], [0.5, 0.5, 0.0]], 1.0),
            ([[0.5, 0.5, -0.0], [0.5, 0.5, 0.0], [0.5, 0.5, -0.0]], -1.0),
            ([[0.5, 0.5, 0.0], [0.5, 0.5, -0.0], [0.5, 0.5, 0.0]], 1.0),
        ],
    )
    def test_equal_minima_keep_the_last_row(self, rows, kept):
        _, pmin = sorted_sweep(rows)
        assert pmin == [0.5, 0.5, 0.0]
        assert signs(pmin) == [1.0, 1.0, kept]

    def test_exact_zeros(self):
        ranks, pmin = sorted_sweep([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
        assert ranks == [[1, 0, 2], [0, 2, 1]]
        assert pmin == [0.5, 0.0, 0.0]

    @given(family=st.one_of(marginal_families(), tied_and_tiny_families()))
    @settings(max_examples=150, deadline=None)
    def test_matches_sort_decreasing_and_numpy_min(self, family):
        ranks, pmin = sorted_sweep(family)
        sorted_rows = []
        for row, rank in zip(family, ranks):
            sorted_p, perm = sort_decreasing(Marginal.of(row))
            assert [i + 1 for i in rank] == list(perm)
            sorted_rows.append(sorted_p.probs)
        expected = np.array(sorted_rows).min(axis=0).tolist()
        assert pmin == expected
        assert signs(pmin) == signs(expected)


class TestSortDecreasing:
    def test_worked_example(self):
        sorted_p, perm = sort_decreasing(Marginal.of([0.2, 0.5, 0.3]))
        assert sorted_p.probs == (0.5, 0.3, 0.2)
        assert perm == (2, 3, 1)

    def test_ties_keep_original_order(self):
        p = Marginal.of([0.25, 0.25, 0.25, 0.25])
        sorted_p, perm = sort_decreasing(p)
        assert sorted_p.probs == p.probs
        assert perm == (1, 2, 3, 4)

    def test_single_state(self):
        sorted_p, perm = sort_decreasing(Marginal.of([1.0]))
        assert sorted_p.probs == (1.0,)
        assert perm == (1,)

    @given(probability_vectors())
    @settings(max_examples=100)
    def test_perm_recovers_sorted(self, probs):
        p = Marginal.of(probs)
        sorted_p, perm = sort_decreasing(p)
        assert all(a >= b for a, b in zip(sorted_p.probs, sorted_p.probs[1:]))
        assert tuple(p.probs[i - 1] for i in perm) == sorted_p.probs


class TestTotalVariationSorted:
    def test_identical(self):
        p = Marginal.of([0.2, 0.5, 0.3])
        assert total_variation_sorted(p, p) == 0.0

    def test_worked_example(self):
        assert total_variation_sorted(
            Marginal.of([0.6, 0.4]), Marginal.of([0.5, 0.5])
        ) == pytest.approx(0.1, abs=1e-12)

    def test_two_level_family_instance(self):
        assert total_variation_sorted(
            Marginal.of([0.25, 0.25, 0.25, 0.25]),
            Marginal.of([0.375, 0.375, 0.125, 0.125]),
        ) == pytest.approx(0.25, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            total_variation_sorted(Marginal.of([1.0]), Marginal.of([0.5, 0.5]))

    @given(probability_vectors(), st.randoms())
    @settings(max_examples=100)
    def test_zero_iff_same_sorted(self, probs, rand):
        shuffled = probs[:]
        rand.shuffle(shuffled)
        tv = total_variation_sorted(Marginal.of(probs), Marginal.of(shuffled))
        assert tv == pytest.approx(0.0, abs=1e-12)


class TestMarginalize:
    def test_diagonal(self):
        c = SparseCoupling(2, (2, 2), {(1, 1): 0.5, (2, 2): 0.5})
        assert marginalize(c, 1) == pytest.approx([0.5, 0.5])

    def test_worked_example_rows(self):
        c = SparseCoupling(2, (2, 2), {(1, 1): 0.5, (2, 2): 0.4, (1, 2): 0.1})
        assert marginalize(c, 1) == pytest.approx([0.6, 0.4])

    def test_worked_example_cols(self):
        c = SparseCoupling(2, (2, 2), {(1, 1): 0.5, (2, 2): 0.4, (1, 2): 0.1})
        assert marginalize(c, 2) == pytest.approx([0.5, 0.5])

    def test_axis_out_of_range(self):
        c = SparseCoupling(2, (2, 2), {(1, 1): 0.5, (2, 2): 0.5})
        with pytest.raises(DimensionError):
            marginalize(c, 3)
        with pytest.raises(DimensionError):
            marginalize(c, 0)

    def test_permuted_tuples_reproduce_permuted_marginals(self, rng):
        # relabeling states through a permutation commutes with marginalizing
        probs = [float(v) for v in rng.dirichlet(np.ones(3))]
        c = SparseCoupling(
            2, (3, 3), {(1, 1): probs[0], (2, 2): probs[1], (3, 3): probs[2]}
        )
        perm = {1: 2, 2: 3, 3: 1}
        relabeled = SparseCoupling(
            2,
            (3, 3),
            {(perm[i], j): mass for (i, j), mass in c.entries.items()},
        )
        original = marginalize(c, 1)
        moved = marginalize(relabeled, 1)
        for state, mass in enumerate(original, start=1):
            assert moved[perm[state] - 1] == pytest.approx(mass, abs=1e-12)


PUBLIC_NAMES = [
    "BoundReport", "Certificate", "CertificationError", "DEFAULT_N_CAP",
    "DimensionError", "DirectionReport", "DomainError", "EPS_CERT", "EPS_MARG",
    "EPS_SUM", "EPS_ZERO", "GreedyStep", "GreedyTrace", "JointObservation",
    "Marginal", "SizeCapError", "SparseCoupling",
    "bound_report", "certify_local_optimum", "exact_min_entropy_2var",
    "extended_entropy",
    "greedy_coupling", "greedy_coupling_two_phase", "infer_direction",
    "marginalize", "special_family",
]


def test_public_surface():
    # the library exports what the system runs; test references live in tests/
    import minent

    assert sorted(minent.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(minent.__all__)) == 26
    for name in minent.__all__:
        assert getattr(minent, name) is not None
