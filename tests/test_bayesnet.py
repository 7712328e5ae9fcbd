"""Unit tests for the discrete Bayesian-network substrate."""

import itertools

import numpy as np
import pytest
from hypothesis import given as for_all
from hypothesis import settings
from hypothesis import strategies as st

from repro.distributions import structured
from repro.distributions.bayesnet import DiscreteBayesianNetwork
from repro.exceptions import ValidationError


@pytest.fixture
def diamond():
    """The Figure 2 network: X1 -> {X2, X3} -> X4."""
    net = DiscreteBayesianNetwork()
    net.add_node("X1", 2, cpd=[0.6, 0.4])
    net.add_node("X2", 2, parents=["X1"], cpd=[[0.7, 0.3], [0.2, 0.8]])
    net.add_node("X3", 2, parents=["X1"], cpd=[[0.9, 0.1], [0.4, 0.6]])
    net.add_node(
        "X4",
        2,
        parents=["X2", "X3"],
        cpd=[[[0.8, 0.2], [0.5, 0.5]], [[0.3, 0.7], [0.1, 0.9]]],
    )
    return net


@pytest.fixture
def chain5():
    return DiscreteBayesianNetwork.chain(
        np.array([0.8, 0.2]), np.array([[0.9, 0.1], [0.4, 0.6]]), 5
    )


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = DiscreteBayesianNetwork()
        net.add_node("A", 2, cpd=[0.5, 0.5])
        with pytest.raises(ValidationError):
            net.add_node("A", 2, cpd=[0.5, 0.5])

    def test_unknown_parent_rejected(self):
        net = DiscreteBayesianNetwork()
        with pytest.raises(ValidationError):
            net.add_node("B", 2, parents=["missing"], cpd=[[0.5, 0.5]])

    def test_cpd_shape_checked(self):
        net = DiscreteBayesianNetwork()
        net.add_node("A", 2, cpd=[0.5, 0.5])
        with pytest.raises(ValidationError):
            net.add_node("B", 2, parents=["A"], cpd=[0.5, 0.5])

    def test_cpd_normalization_checked(self):
        net = DiscreteBayesianNetwork()
        with pytest.raises(ValidationError):
            net.add_node("A", 2, cpd=[0.5, 0.6])

    def test_structure_queries(self, diamond):
        assert diamond.parents("X4") == ("X2", "X3")
        assert diamond.children("X1") == ("X2", "X3")
        assert diamond.n_states("X1") == 2
        assert diamond.nodes == ("X1", "X2", "X3", "X4")


class TestMarkovBlanket:
    def test_chain_blanket_is_neighbors(self, chain5):
        assert chain5.markov_blanket("X3") == frozenset({"X2", "X4"})
        assert chain5.markov_blanket("X1") == frozenset({"X2"})

    def test_diamond_blanket_includes_coparents(self, diamond):
        assert diamond.markov_blanket("X2") == frozenset({"X1", "X3", "X4"})


class TestDSeparation:
    def test_chain_separation(self, chain5):
        assert chain5.is_d_separated("X1", {"X5"}, {"X3"})
        assert not chain5.is_d_separated("X1", {"X5"}, set())

    def test_collider_opens_path(self, diamond):
        # X2 and X3 are d-separated given X1 but *not* given {X1, X4}.
        assert diamond.is_d_separated("X2", {"X3"}, {"X1"})
        assert not diamond.is_d_separated("X2", {"X3"}, {"X1", "X4"})

    def test_blanket_separates_everything(self, diamond):
        for node in diamond.nodes:
            blanket = diamond.markov_blanket(node)
            rest = set(diamond.nodes) - {node} - blanket
            assert diamond.is_d_separated(node, rest, blanket)


class TestQuilts:
    def test_trivial_quilt(self, chain5):
        quilt = chain5.trivial_quilt("X3")
        assert quilt.is_trivial
        assert quilt.card_nearby() == 5

    def test_quilt_from_set_valid(self, chain5):
        quilt = chain5.quilt_from_set("X3", {"X2", "X4"})
        assert quilt is not None
        assert quilt.nearby == frozenset({"X3"})
        assert quilt.remote == frozenset({"X1", "X5"})

    def test_quilt_from_set_one_sided(self, chain5):
        quilt = chain5.quilt_from_set("X1", {"X3"})
        assert quilt is not None
        assert quilt.nearby == frozenset({"X1", "X2"})
        assert quilt.remote == frozenset({"X4", "X5"})

    def test_invalid_separator_returns_none(self, diamond):
        # Removing {X1, X4} skeleton-disconnects X3 from X2, but conditioning
        # on the collider X4 opens the path X2 -> X4 <- X3: not a valid quilt.
        assert diamond.quilt_from_set("X2", {"X1", "X4"}) is None

    def test_separator_leaving_no_remote_is_valid(self, diamond):
        # Removing {X2} leaves X4 reachable through X3, so everything stays
        # "nearby" and the quilt is (vacuously) valid.
        quilt = diamond.quilt_from_set("X1", {"X2"})
        assert quilt is not None
        assert quilt.remote == frozenset()

    def test_distance_quilts_include_trivial(self, chain5):
        quilts = chain5.distance_quilts("X3")
        assert any(q.is_trivial for q in quilts)
        assert len(quilts) >= 2

    def test_distance_quilts_are_valid(self, diamond):
        for node in diamond.nodes:
            for quilt in diamond.distance_quilts(node):
                if quilt.remote:
                    assert diamond.is_d_separated(node, quilt.remote, quilt.quilt)


class TestInference:
    def test_joint_sums_to_one(self, diamond):
        _, probs = diamond.enumerate_joint()
        np.testing.assert_allclose(probs.sum(), 1.0)

    def test_joint_matches_factorization(self, diamond):
        assignments, probs = diamond.enumerate_joint()
        idx = assignments.index((1, 0, 1, 1))
        expected = 0.4 * 0.2 * 0.6 * 0.5
        np.testing.assert_allclose(probs[idx], expected)

    def test_marginal_of_root(self, diamond):
        np.testing.assert_allclose(diamond.marginal_of("X1"), [0.6, 0.4])

    def test_chain_marginal_matches_markov(self, chain5):
        from repro.distributions.markov import MarkovChain

        chain = MarkovChain([0.8, 0.2], [[0.9, 0.1], [0.4, 0.6]])
        np.testing.assert_allclose(chain5.marginal_of("X3"), chain.marginal(2), atol=1e-12)

    def test_conditional_table_normalizes(self, diamond):
        table = diamond.conditional_table(["X4"], {"X1": 0})
        np.testing.assert_allclose(sum(table.values()), 1.0)

    def test_conditional_zero_probability_event(self):
        net = DiscreteBayesianNetwork()
        net.add_node("A", 2, cpd=[1.0, 0.0])
        with pytest.raises(ValidationError):
            net.conditional_table(["A"], {"A": 1})

    def test_conditional_independence_via_quilt(self, chain5):
        """P(X5 | X3=v, X1=a) should not depend on a (X3 separates)."""
        t0 = chain5.conditional_table(["X5"], {"X3": 0, "X1": 0})
        t1 = chain5.conditional_table(["X5"], {"X3": 0, "X1": 1})
        for key in t0:
            np.testing.assert_allclose(t0[key], t1.get(key, 0.0), atol=1e-10)

    def test_joint_size(self, diamond):
        assert diamond.joint_size() == 16


class TestIntegralEvidence:
    """Evidence values are state indices: a float or a string is refused,
    never truncated to a neighbouring state."""

    @pytest.fixture
    def chain3(self):
        return DiscreteBayesianNetwork.chain(
            np.array([0.6, 0.4]), np.array([[0.85, 0.15], [0.2, 0.8]]), 3
        )

    @pytest.mark.parametrize("value", [1.7, 0.2, 1.0, np.float64(1.0), "1", None])
    def test_non_integral_evidence_is_refused(self, chain3, value):
        with pytest.raises(ValidationError, match="integral"):
            chain3.conditional_table(["X2"], {"X1": value})
        with pytest.raises(ValidationError, match="integral"):
            chain3.inference_engine().marginals_given(("X2",), {"X1": value})

    @pytest.mark.parametrize("value", [np.int64(1), np.uint8(1), True])
    def test_integral_evidence_matches_int(self, chain3, value):
        expected = chain3.conditional_table(["X2", "X1"], {"X1": 1})
        assert chain3.conditional_table(["X2", "X1"], {"X1": value}) == expected


# ----------------------------------------------------------------------
# Bayes-ball versus the moralized-ancestral-graph criterion
# ----------------------------------------------------------------------
def moralized_d_separated(net, x, targets, given) -> bool:
    """The reference d-separation test: BFS from ``x`` avoiding ``given`` in
    the moralized graph of ``ancestral_closure({x} | targets | given)``
    (Lauritzen et al. 1990).  ``is_d_separated`` must answer exactly as this
    does, including for ``x`` in ``given`` and targets in ``given``."""
    targets = set(targets)
    given = set(given)
    if x in targets:
        return False
    if not targets:
        return True
    ancestral = net.ancestral_closure({x} | targets | given)
    adjacency = {n: set() for n in ancestral}
    for node in ancestral:
        parents = [p for p in net.parents(node) if p in ancestral]
        for parent in parents:
            adjacency[node].add(parent)
            adjacency[parent].add(node)
        for a, b in itertools.combinations(parents, 2):  # marry co-parents
            adjacency[a].add(b)
            adjacency[b].add(a)
    visited = {x}
    frontier = [x]
    while frontier:
        for nxt in adjacency[frontier.pop()]:
            if nxt in given or nxt in visited:
                continue
            if nxt in targets:
                return False
            visited.add(nxt)
            frontier.append(nxt)
    return True


def dag_from_parents(parent_lists) -> DiscreteBayesianNetwork:
    """Binary nodes ``V0..V{n-1}``; d-separation reads only the DAG."""
    net = DiscreteBayesianNetwork()
    for i, parents in enumerate(parent_lists):
        names = [f"V{p}" for p in parents]
        net.add_node(f"V{i}", 2, parents=names, cpd=np.full((2,) * (len(names) + 1), 0.5))
    return net


@st.composite
def dsep_queries(draw):
    """A DAG of at most 12 nodes of one shape, and an ``(x, targets,
    given)`` query in which ``x`` and some targets may sit inside
    ``given``."""
    shape = draw(st.sampled_from(["chain", "tree", "v-structures", "components", "random"]))
    n = draw(st.integers(1, 12))
    parent_lists = [[]]
    for i in range(1, n):
        earlier = st.integers(0, i - 1)
        if shape == "chain":
            parents = [i - 1]
        elif shape == "tree":
            parents = [draw(earlier)]
        elif shape == "v-structures":
            parents = draw(st.lists(earlier, min_size=min(i, 2), max_size=2, unique=True))
        elif shape == "components":
            parents = draw(st.lists(earlier, max_size=1))
        else:
            parents = draw(st.lists(earlier, max_size=3, unique=True))
        parent_lists.append(parents)
    net = dag_from_parents(parent_lists)
    nodes = st.sampled_from(net.nodes)
    x = draw(nodes)
    targets = draw(st.sets(nodes, max_size=n))
    given = draw(st.sets(nodes, max_size=n))
    if draw(st.booleans()):
        given.add(x)
    if targets and draw(st.booleans()):
        given.add(draw(st.sampled_from(sorted(targets))))
    return net, x, targets, given


class TestBayesBall:
    @settings(max_examples=400, deadline=None)
    @for_all(dsep_queries())
    def test_matches_moralized_oracle(self, query):
        net, x, targets, given = query
        assert net.is_d_separated(x, targets, given) == moralized_d_separated(
            net, x, targets, given
        )

    @settings(max_examples=400, deadline=None)
    @for_all(dsep_queries())
    def test_quilt_certification_matches_moralized_oracle(self, query):
        """``quilt_from_set`` keeps a separator exactly when the remote set
        it leaves is empty or d-separated from the node."""
        net, x, _, given = query
        separator = given - {x}
        remote = set(net.nodes) - separator - skeleton_component(net, x, separator)
        certified = not remote or moralized_d_separated(net, x, remote, separator)
        assert (net.quilt_from_set(x, separator) is not None) == certified

    def test_x_in_given_is_ignored(self):
        """A naive Bayes-ball would block every trail at an observed ``x``."""
        chain4 = DiscreteBayesianNetwork.chain(
            np.array([0.8, 0.2]), np.array([[0.9, 0.1], [0.4, 0.6]]), 4
        )
        assert not chain4.is_d_separated("X2", {"X4"}, {"X2"})
        assert chain4.is_d_separated("X2", {"X4"}, {"X2", "X3"})

    def test_target_in_given_counts_as_separated(self, chain5):
        assert chain5.is_d_separated("X1", {"X2"}, {"X2"})
        assert chain5.is_d_separated("X1", {"X2", "X3"}, {"X2", "X4"})
        assert not chain5.is_d_separated("X3", {"X2", "X5"}, {"X2"})

    def test_children_index_follows_insertion_order(self, diamond):
        diamond.add_node("X0", 2, parents=["X1", "X4"], cpd=np.full((2, 2, 2), 0.5))
        assert diamond.children("X1") == ("X2", "X3", "X0")
        assert diamond.children("X4") == ("X0",)
        diamond.update_cpd("X2", [[0.5, 0.5], [0.5, 0.5]])
        assert diamond.children("X1") == ("X2", "X3", "X0")
        assert diamond.undirected_neighbors("X4") == frozenset({"X2", "X3", "X0"})


def _structure(scenario):
    """A scenario's reference network and generator (only the DAG matters)."""
    return scenario.reference, scenario.quilt_generator


CERTIFICATION_CASES = {
    "grid-4x5": lambda: _structure(structured.grid_scenario(4, 5)),
    "hub-5x4": lambda: _structure(structured.hub_and_spoke_scenario(5, 4)),
    "blocks-6x5": lambda: _structure(structured.household_blocks_scenario(6, 5)),
    "distance-shells": lambda: (
        structured.grid_network(4, 5),
        lambda net, node: net.distance_quilts(node),
    ),
}


def skeleton_component(net, node, separator) -> set:
    """The nodes joined to ``node`` in the skeleton minus ``separator``."""
    component = {node}
    frontier = [node]
    while frontier:
        for nxt in net.undirected_neighbors(frontier.pop()):
            if nxt not in separator and nxt not in component:
                component.add(nxt)
                frontier.append(nxt)
    return component


@pytest.mark.parametrize("case", sorted(CERTIFICATION_CASES))
def test_every_candidate_certifies_as_the_oracle_does(case):
    """Each separator a quilt generator proposes is kept exactly when the
    oracle certifies it: ``quilt_from_set`` answers ``None`` exactly when
    the remote set the separator leaves is non-empty and not d-separated
    from the node.  A kept quilt's nearby set is the node's skeleton
    component, and every candidate's remote set is the node set minus its
    quilt and nearby sets."""
    net, generator = CERTIFICATION_CASES[case]()
    proposed = []
    build = net.quilt_from_set

    def recording(node, separator):
        separator = frozenset(separator)
        quilt = build(node, separator)
        proposed.append((node, separator - {node}, quilt))
        return quilt

    net.quilt_from_set = recording
    everyone = frozenset(net.nodes)
    for node in net.nodes:
        for quilt in generator(net, node):
            assert quilt.remote == everyone - quilt.quilt - quilt.nearby
    assert proposed
    for node, separator, quilt in proposed:
        component = skeleton_component(net, node, separator)
        remote = everyone - separator - component
        certified = not remote or moralized_d_separated(net, node, remote, separator)
        assert (quilt is not None) == certified, (node, sorted(separator))
        if quilt is not None:
            assert (quilt.quilt, quilt.nearby, quilt.remote) == (separator, component, remote)


def test_the_certification_cases_drop_a_separator():
    """The oracle test above sees rejected separators too."""
    dropped = 0
    for case in CERTIFICATION_CASES.values():
        net, generator = case()
        build = net.quilt_from_set

        def counting(node, separator, build=build):
            nonlocal dropped
            quilt = build(node, separator)
            dropped += quilt is None
            return quilt

        net.quilt_from_set = counting
        for node in net.nodes:
            generator(net, node)
    assert dropped


class TestUnknownNodes:
    """Unknown names raise instead of surfacing as a ``KeyError`` or a
    quilt that holds a node the network does not have."""

    @pytest.fixture
    def chain4(self):
        return DiscreteBayesianNetwork.chain(
            np.array([0.8, 0.2]), np.array([[0.9, 0.1], [0.4, 0.6]]), 4
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda net: net.is_d_separated("X1", {"X9"}, {"X2"}),
            lambda net: net.is_d_separated("X9", {"X1"}, set()),
            lambda net: net.is_d_separated("X1", {"X4"}, {"X9"}),
            lambda net: net.is_d_separated("X1", set(), {"X9"}),
            lambda net: net.quilt_from_set("X1", {"X9"}),
            lambda net: net.quilt_from_set("X9", {"X2"}),
        ],
        ids=["target", "x", "given", "given-no-targets", "quilt-node", "node"],
    )
    def test_raises_validation_error_naming_the_node(self, chain4, call):
        with pytest.raises(ValidationError, match="X9"):
            call(chain4)
