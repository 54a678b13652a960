"""Shared fixtures: small environments and cached trained models.

Expensive artifacts (collected datasets, trained models) are session-scoped
so the suite trains each configuration once.
"""

import numpy as np
import pytest
from hypothesis import settings

from wavlab.datasets import EnvConfig, SplitConfig, build_split, collect_task_play
from wavlab.models import TrainConfig, train_idm, train_world_model


# Property tests draw the same small set of examples on every run and keep no
# example database, so the suite stays deterministic and fast.
settings.register_profile("wavlab", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("wavlab")


SMALL_ENV = EnvConfig(width=6, height=6, n_objects=4, n_noisy_floors=0, horizon=40)
NOISY_ENV = EnvConfig(width=6, height=6, n_objects=4, n_noisy_floors=2, horizon=40)

FAST_WM = TrainConfig(learning_rate=0.3, batch_size=32, epochs=15)
FAST_IDM = TrainConfig(learning_rate=0.03, batch_size=16, epochs=60)


@pytest.fixture(scope="session")
def small_env():
    return SMALL_ENV


@pytest.fixture(scope="session")
def small_encoder():
    return SMALL_ENV.encoder()


@pytest.fixture(scope="session")
def small_data():
    """2.5k task-play transitions in the small noise-free environment."""
    return collect_task_play(SMALL_ENV, 2500, np.random.default_rng(11))


@pytest.fixture(scope="session")
def small_split(small_data):
    config = SplitConfig(seed_size=150, pool_size=600, test_size=140, video_size=1200)
    return build_split(small_data, config, np.random.default_rng(12), SMALL_ENV)


@pytest.fixture(scope="session")
def trained_wm(small_split, small_encoder):
    return train_world_model(
        small_split.seed_labeled + small_split.test,
        small_encoder,
        hyper=FAST_WM,
        rng=np.random.default_rng(13),
    )


@pytest.fixture(scope="session")
def trained_idm(small_split, small_encoder):
    return train_idm(
        small_split.seed_labeled + small_split.test,
        0.0,
        hyper=FAST_IDM,
        rng=np.random.default_rng(14),
        encoder=small_encoder,
    )
