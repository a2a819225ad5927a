import time

import numpy as np
import pytest

from ilrkit import dataengine, expert, fusion, synthgen
from ilrkit.embedstore import EmbeddingSet


@pytest.fixture(scope="session")
def small_bundle():
    cfg = synthgen.SynthConfig(
        seed=11, n_categories=2, clusters_per_category=4,
        instances_per_cluster=5, images_per_instance=4,
    )
    return synthgen.generate(cfg)


@pytest.fixture(scope="session")
def default_bundle():
    return synthgen.generate(synthgen.SynthConfig())


@pytest.fixture(scope="session")
def default_split(default_bundle):
    return dataengine.make_split(default_bundle.general_set, 0.3, 7)


def _restrict(eset, instances, name):
    return EmbeddingSet.from_records(
        name, [r for r in eset.records if r.instance_id in instances]
    )


@pytest.fixture(scope="session")
def trained_expert(default_bundle, default_split):
    """The expert head fitted on the train side, its embedding set, and the
    wall-clock seconds of the fit."""
    train_raw = _restrict(default_bundle.raw_set, default_split.train_instances, "raw")
    t0 = time.monotonic()
    head = expert.fit_expert(train_raw)
    elapsed = time.monotonic() - t0
    expert_set = expert.embed_set(head, default_bundle.raw_set)
    return head, expert_set, elapsed


@pytest.fixture(scope="session")
def expert_vectors(trained_expert):
    _, expert_set, _ = trained_expert
    return {r.image_id: np.asarray(r.vector, dtype=np.float64) for r in expert_set.records}


@pytest.fixture(scope="session")
def token_map_index(default_bundle):
    return {t.image_id: t for t in default_bundle.token_maps}


@pytest.fixture(scope="session")
def trained_adapter(default_bundle, default_split, token_map_index, expert_vectors):
    """The fusion adapter fitted in closed form on 2,000 training tasks,
    plus the wall-clock seconds of the fit."""
    train_tasks = dataengine.build_gallery_tasks(
        default_bundle.general_set, default_split.train_instances,
        n_tasks=2000, seed=8, task_prefix="a-",
    )
    t0 = time.monotonic()
    adapter = fusion.fit_adapter(
        fusion.stack_tasks(train_tasks, token_map_index, expert_vectors)).adapter
    elapsed = time.monotonic() - t0
    return adapter, elapsed


def restrict_set(eset, instances, name="view"):
    return _restrict(eset, instances, name)
