import random

import pytest

from eqmatch.synth import plant_twins, sparse_multiplex_graph


@pytest.fixture
def rng():
    return random.Random(0xE9)


@pytest.fixture
def data_dir(request):
    return request.path.parent / "data"


@pytest.fixture(scope="session")
def twin_world():
    """The seeded sparse undirected 20,000-vertex world (3n drawn edges)
    with self-loops on a seeded tenth of its vertices, then a tenth of its
    vertices replaced by 2-3 open or closed twins (22,867 vertices)."""
    rng, n = random.Random(20000), 20000
    g = sparse_multiplex_graph(rng, n, 3 * n)
    for v in rng.sample(range(n), n // 10):
        g.add_edge(v, v)
    return plant_twins(rng, g)
