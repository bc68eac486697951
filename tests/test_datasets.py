"""Synthetic benchmark generators: motif graphs and SI infection scenarios."""

import tracemalloc

import numpy as np
import pytest

from relwalk import (
    Graph,
    InfectionScenario,
    ModelFormatError,
    gen_ba2motif,
    gen_infection,
    graph_to_dict,
    motif_edges,
    oracle_estimate,
)
from relwalk.datasets import CYCLE_EDGES, HOUSE_EDGES, MOTIF_SIZE, _simulate_si


# -- motif classification set ----------------------------------------------------


def test_sample_size_and_balance():
    graphs = gen_ba2motif(10, seed=0)
    assert all(g.num_nodes == 25 for g in graphs)
    assert sorted(g.label for g in graphs) == [0] * 5 + [1] * 5


def test_same_seed_identical_output():
    a = gen_ba2motif(4, seed=3)
    b = gen_ba2motif(4, seed=3)
    assert [graph_to_dict(g) for g in a] == [graph_to_dict(g) for g in b]
    c = gen_ba2motif(4, seed=4)
    assert [graph_to_dict(g) for g in a] != [graph_to_dict(g) for g in c]


def test_motif_edge_counts():
    assert len(HOUSE_EDGES) == 6 and len(CYCLE_EDGES) == 5
    for g in gen_ba2motif(6, seed=1):
        undirected = {tuple(sorted(e)) for e in motif_edges(g)}
        assert len(undirected) == (6 if g.label == 0 else 5)


def test_motif_attached_by_single_bridge():
    for g in gen_ba2motif(6, seed=2):
        a = g.adjacency
        bridge = a[:20, 20:]
        assert bridge.sum() == 1.0          # one base -> motif edge


def test_all_ones_default_features_and_degree_mode():
    g_ones = gen_ba2motif(1, seed=0)[0]
    assert g_ones.features.shape == (25, 1)
    assert np.all(g_ones.features == 1.0)
    g_deg = gen_ba2motif(1, seed=0, feature_mode="degree")[0]
    assert g_deg.features.shape[1] > 1
    np.testing.assert_array_equal(g_deg.features.sum(axis=1), np.ones(25))


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        gen_ba2motif(1, base_size=4)
    with pytest.raises(ValueError):
        gen_ba2motif(1, feature_mode="constant")


# -- infection scenarios -----------------------------------------------------------


def path_adjacency(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = 1.0
    return a


def test_deterministic_spread_on_path():
    scenario = gen_infection(3, steps=2, lam=1.0,
                             adjacency=path_adjacency(3), carriers=[0])
    assert scenario.labels.tolist() == [True, True, True]
    assert scenario.chains[2] == [0, 1, 2]
    assert scenario.chains[1] == [0, 1]
    assert scenario.chains[0] == [0]


def test_lambda_zero_only_carriers_infected():
    scenario = gen_infection(30, steps=3, lam=0.0, seed=5)
    assert set(np.flatnonzero(scenario.labels)) == set(scenario.carriers)


def test_full_scale_config_generates():
    scenario = gen_infection(1000, steps=4, lam=0.6, seed=0)
    assert scenario.graph.num_nodes == 1000
    assert len(scenario.carriers) == 20      # 2% of 1000
    assert scenario.steps == 4 and scenario.lam == 0.6


def test_carrier_features_are_indicator_columns():
    scenario = gen_infection(50, steps=2, lam=0.5, seed=1)
    feats = scenario.graph.features
    assert np.all(feats[scenario.carriers] == [0.0, 1.0])
    others = np.setdiff1d(np.arange(50), scenario.carriers)
    assert np.all(feats[others] == [1.0, 0.0])


def test_chain_validity_and_label_consistency():
    scenario = gen_infection(80, steps=3, lam=0.4, seed=7)
    a = scenario.graph.adjacency
    for target, chain in scenario.chains.items():
        assert chain[0] in scenario.carriers
        assert chain[-1] == target
        assert len(chain) <= scenario.steps + 1
        for u, v in zip(chain, chain[1:]):
            assert a[u, v] != 0.0
    infected = set(np.flatnonzero(scenario.labels))
    assert infected == set(scenario.chains)
    assert set(scenario.carriers) <= infected


def test_scenario_round_trip(tmp_path):
    scenario = gen_infection(40, steps=2, lam=0.7, seed=2)
    path = tmp_path / "scenario.json"
    scenario.save(path)
    loaded = InfectionScenario.load(path)
    assert loaded.to_dict() == scenario.to_dict()


@pytest.mark.parametrize("key", ["graph", "carriers", "lambda", "steps", "labels", "chains"])
def test_scenario_missing_key_refused(key):
    data = gen_infection(10, steps=1, lam=0.5, seed=0).to_dict()
    del data[key]
    with pytest.raises(ModelFormatError, match=key):
        InfectionScenario.from_dict(data)


def test_generation_determinism():
    a = gen_infection(60, steps=3, lam=0.5, seed=9)
    b = gen_infection(60, steps=3, lam=0.5, seed=9)
    assert a.to_dict() == b.to_dict()


def test_infection_parameter_validation():
    with pytest.raises(ValueError):
        gen_infection(10, steps=2, lam=1.5)
    with pytest.raises(ValueError):
        gen_infection(10, steps=2, lam=0.5, carrier_frac=0.0)


# -- Monte-Carlo oracle -------------------------------------------------------------


def test_oracle_probabilities_in_unit_interval():
    scenario = gen_infection(30, steps=2, lam=0.5, seed=3)
    est = oracle_estimate(scenario, q=200)
    assert np.all((0.0 <= est.infection_prob) & (est.infection_prob <= 1.0))
    assert all(0.0 < p <= 1.0 for p in est.chain_prob.values())


def test_oracle_deterministic_scenario_all_reachable_certain():
    scenario = gen_infection(4, steps=3, lam=1.0,
                             adjacency=path_adjacency(4), carriers=[0])
    est = oracle_estimate(scenario, q=50)
    np.testing.assert_array_equal(est.infection_prob, np.ones(4))
    assert [c for c in est.chain_prob if c[-1] == 3] == [(0, 1, 2, 3)]
    assert est.chain_prob[(0, 1, 2, 3)] == 1.0


def test_oracle_possible_chains_are_valid_paths():
    scenario = gen_infection(30, steps=3, lam=0.6, seed=4)
    est = oracle_estimate(scenario, q=100)
    a = scenario.graph.adjacency
    for chain in est.chain_prob:
        assert chain[0] in scenario.carriers
        assert len(chain) <= scenario.steps + 1
        for u, v in zip(chain, chain[1:]):
            assert a[u, v] != 0.0


def test_oracle_estimates_converge_with_q():
    scenario = gen_infection(25, steps=2, lam=0.5, seed=6)
    reference = oracle_estimate(scenario, q=40_000, seed=99).infection_prob
    errors = []
    for q in (100, 1_000, 10_000):
        est = oracle_estimate(scenario, q=q, seed=1)
        errors.append(np.abs(est.infection_prob - reference).mean())
    assert errors[2] < errors[0]
    assert errors[2] < 2 * errors[1]  # roughly 1/sqrt(Q) shrinkage


@pytest.mark.parametrize("kwargs", [dict(steps=-1), dict(mean_out_degree=-1.0),
                                    dict(mean_out_degree=float("nan"))])
def test_gen_infection_refuses_negative_steps_and_degree(kwargs):
    # either would write a scenario with no spread, or a graph with no edges
    with pytest.raises(ValueError):
        gen_infection(**{"m": 20, "steps": 2, "lam": 0.5, **kwargs})


def test_oracle_rejects_bad_q():
    scenario = gen_infection(10, steps=1, lam=0.5, seed=0)
    with pytest.raises(ValueError):
        oracle_estimate(scenario, q=0)


def dense_infection_prob(scenario, q, seed):
    """oracle_estimate's infection probabilities from the dense Lambda - I."""
    m = scenario.graph.num_nodes
    a = scenario.graph.adjacency - np.eye(m)
    out_neighbors = [np.flatnonzero(a[u]) for u in range(m)]
    x = np.zeros(m)
    for child in np.random.SeedSequence(seed).spawn(q):
        infected, _ = _simulate_si(out_neighbors, scenario.carriers, scenario.lam,
                                   scenario.steps, np.random.default_rng(child))
        x += infected
    return x / q


def test_oracle_gives_equal_estimates_on_loaded_and_matrix_scenarios():
    for seed in range(4):
        scenario = gen_infection(40, steps=3, lam=0.4, seed=seed)
        data = scenario.to_dict()
        assert "edges" in data["graph"]
        # a listed [i, i] makes Lambda[i, i] 2: i stays its own out-neighbour
        data["graph"]["edges"].append([seed, seed])
        loaded = InfectionScenario.from_dict(data)
        matrix = InfectionScenario(Graph(loaded.graph.adjacency, loaded.graph.features),
                                   loaded.carriers, loaded.lam, loaded.steps, loaded.labels,
                                   loaded.chains)
        for sc in (scenario, loaded, matrix):
            expected = dense_infection_prob(sc, 30, seed)
            assert oracle_estimate(sc, 30, seed).infection_prob.tobytes() == expected.tobytes()
        a, b = oracle_estimate(loaded, 30, seed), oracle_estimate(matrix, 30, seed)
        assert a.infection_prob.tobytes() == b.infection_prob.tobytes()
        assert a.chain_prob == b.chain_prob


def test_oracle_on_a_loaded_scenario_allocates_no_m_by_m_array():
    m = 3000
    loaded = InfectionScenario.from_dict(gen_infection(m, steps=3, lam=0.3, seed=0).to_dict())
    edges = loaded.graph.csr[1].size
    tracemalloc.start()
    try:
        oracle_estimate(loaded, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # O(M + E): the neighbour lists and one simulation (measured ~0.7 MiB);
    # Lambda - I densified would be 72 MB
    assert peak < 100 * edges < m * m, (peak, edges)
