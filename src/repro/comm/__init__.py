"""Generic personalized communication on the cube (§3 of the paper).

*Personalized* communication means every (source, destination) pair has
its own private data — no broadcast sharing.  Three patterns appear:

* **one-to-all** (§3.1): a scatter from one root, routed by a spanning
  binomial tree (one-port optimal within 2x), by n rotated SBTs or by a
  spanning balanced n-tree (n-port optimal order);
* **all-to-all** (§3.2): every node sends a block to every node — the
  standard exchange algorithm (one-port optimal within 2x) or SBnT
  distributed routing (n-port);
* **all-to-some / some-to-all** (§3.3): ``k`` accumulation/splitting
  steps combined with ``l`` steps of all-to-all within subcubes, ordered
  per Theorem 1.

All functions move real blocks through a
:class:`~repro.machine.engine.EnsembleNetwork` and return nothing — time and
traffic are read off ``network.stats``.
"""

from repro.comm.one_to_all import (
    scatter_rotated_sbts,
    scatter_sbnt,
    scatter_tree,
    personalized_data,
)
from repro.comm.all_to_all import (
    all_to_all_exchange,
    all_to_all_personalized_data,
    all_to_all_pipelined_exchange,
    all_to_all_sbnt,
    all_to_all_sbnt_distributed,
)
from repro.comm.all_to_some import some_to_all_scatter, all_to_some_gather
from repro.comm.gather import gather_data, gather_tree

__all__ = [
    "all_to_all_exchange",
    "all_to_all_personalized_data",
    "all_to_all_pipelined_exchange",
    "all_to_all_sbnt",
    "all_to_all_sbnt_distributed",
    "all_to_some_gather",
    "gather_data",
    "gather_tree",
    "personalized_data",
    "scatter_rotated_sbts",
    "scatter_sbnt",
    "scatter_tree",
    "some_to_all_scatter",
]
