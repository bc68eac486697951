"""Session fixtures: trained desk-scale models shared across test modules."""

import pytest

from relwalk import (
    TrainConfig,
    accuracy,
    degree_normalized,
    gen_ba2motif,
    gen_infection,
    init_model,
    train,
)

# Desk-scale motif classifier recipe.  Models are trained on 100 graphs and
# kept only when test accuracy reaches the bar; seeds are taken in order
# until ten models qualify.
DESK_MODEL_COUNT = 10
DESK_DIMS = [5, 4, 4, 4]
DESK_EPOCHS = 500
DESK_LR = 0.05
DESK_MIN_ACCURACY = 0.95
DESK_SEED_LIMIT = 40


@pytest.fixture(scope="session")
def desk_models():
    """[(seed, model, test_set)] for ten accuracy-qualified motif classifiers."""
    models = []
    seed = 0
    while len(models) < DESK_MODEL_COUNT and seed < DESK_SEED_LIMIT:
        train_set = gen_ba2motif(100, seed=seed, normalize=True,
                                 feature_mode="degree")
        test_set = gen_ba2motif(40, seed=1000 + seed, normalize=True,
                                feature_mode="degree")
        model = train(
            init_model(DESK_DIMS, 2, seed=seed),
            train_set,
            TrainConfig(epochs=DESK_EPOCHS, lr=DESK_LR, seed=seed),
        ).model
        if accuracy(model, test_set) >= DESK_MIN_ACCURACY:
            models.append((seed, model, test_set))
        seed += 1
    assert len(models) == DESK_MODEL_COUNT
    return models


@pytest.fixture(scope="session")
def infection_setup():
    """SI scenario (M=200, 3 steps, lambda=0.6) plus a trained node classifier."""
    scenario = gen_infection(200, steps=3, lam=0.6, carrier_frac=0.02, seed=1)
    train_graph = degree_normalized(scenario.graph)
    model = train(
        init_model([2, 16, 16, 16], 2, task="node", seed=1),
        [train_graph],
        TrainConfig(epochs=4000, lr=0.25, seed=1),
    ).model
    return scenario, train_graph, model
