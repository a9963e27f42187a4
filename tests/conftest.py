import os
import select

import pytest

from lppart import graph


@pytest.fixture
def forked_parse(monkeypatch):
    """Fork for every table read from a path and every table write, whose child
    then formats all the rows; the results of ``_loadtxt_forked`` go to a list."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(graph, "_FORK_CHARS", 0)
    monkeypatch.setattr(graph, "_FORK_CELLS", 0)
    monkeypatch.setattr(graph, "_ready", lambda pipe: bool(select.select([pipe], [], [])[0]))
    results = []
    forked = graph._loadtxt_forked
    monkeypatch.setattr(graph, "_loadtxt_forked",
                        lambda *args: results.append(forked(*args)) or results[-1])
    with graph.worker_threads(2):
        if not graph._can_fork():
            pytest.skip("Python 3.12+ with other threads running: the parse and write stay serial")
        yield results
