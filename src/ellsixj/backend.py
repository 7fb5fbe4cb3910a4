"""The scalar kernels, as one module object.

Callers reach every kernel as an attribute of `kernels` (`kernels.theta(...)`,
never a name imported from it), so one attribute replaced on the module
is seen by every caller, including the kernels that call each other.
"""

from . import _kernels_py as kernels

BACKEND = "python"
