"""Fixtures shared by the test modules: forcing one backend of graph_core._label."""

import functools

import numpy as np
import pytest

from graphnodal import graph_core

_BACKENDS = {
    "dense": lambda g: functools.partial(
        graph_core._labels_dense, graph_core.adjacency_matrix(g, np.float32)),
    "sparse": lambda g: functools.partial(graph_core._labels_sparse, g.u, g.v),
}


@pytest.fixture
def force_backend(monkeypatch):
    """force_backend(kind) routes every graph_core._label call,
    connected_components' and the nodal layer's, through the dense or the
    sparse labeler, whatever the graph's edge density."""
    def force(kind):
        monkeypatch.setattr(graph_core, "_backend", _BACKENDS[kind])
    return force


@pytest.fixture(params=sorted(_BACKENDS))
def backend(request, force_backend):
    """Run the test once on each labeling backend."""
    force_backend(request.param)
    return request.param
