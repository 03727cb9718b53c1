"""satprop: partitioned-space propagation for 3SAT, with a brute-force audit.

Colored-partition algebra over Z2 cubes, clausal partitions of 3SAT
instances, a worklist fixpoint engine for the unidirectional implication
operator, an independent brute-force oracle, and DIMACS/JSON tooling.
"""

__version__ = "0.1.0"

from .bitspace import Color, Partition  # noqa: F401
from .clausal import Clause, ClausalState, Instance  # noqa: F401
