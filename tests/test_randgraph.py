import pytest

from succorder import MAX_VERTICES, is_connected, random_connected_graph


def test_always_connected():
    for seed in range(30):
        g = random_connected_graph(9, 0.1, seed)
        assert is_connected(g)


def test_deterministic_per_seed():
    a = random_connected_graph(12, 0.3, seed=5)
    b = random_connected_graph(12, 0.3, seed=5)
    assert a == b
    c = random_connected_graph(12, 0.3, seed=6)
    assert a != c


def test_tree_at_zero_density():
    g = random_connected_graph(10, 0.0, seed=3)
    assert g.edge_count == 9
    assert is_connected(g)


def test_complete_at_full_density():
    g = random_connected_graph(6, 1.0, seed=3)
    assert g.edge_count == 15


def test_tiny_sizes():
    assert random_connected_graph(1, 0.5, 0).n == 1
    g2 = random_connected_graph(2, 0.0, 0)
    assert g2.edge_count == 1


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_connected_graph(0, 0.2, 1)
    with pytest.raises(ValueError):
        random_connected_graph(5, 1.5, 1)
    with pytest.raises(ValueError, match=r"^vertex count must be in \[1, 64\], got 65$"):
        random_connected_graph(MAX_VERTICES + 1, 0.2, 1)
