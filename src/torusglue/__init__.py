"""Circle fibrations of 4-manifolds glued along 3-torus boundaries.

The computations live at the level of first homology of the boundary
3-torus: curves and essential tori are primitive (co)vectors in Z^3, pieces
carry framings and declared homology data, and every classification is
cross-checked by an independent Smith-normal-form homology computation.
"""

from .gluing import GluingMap, find_fibration, glue
from .invariants import mayer_vietoris_h1
from .lattice import IntMatrix
from .pieces import torus_times_disk
from .surgery import LensSpace, SurgerySpec, lens_class, unknot_torus_surgery

__version__ = "0.1.0"
