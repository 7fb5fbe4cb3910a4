"""The scalar kernels, as one module object.

Callers reach every kernel as an attribute of `kernels` (`kernels.theta(...)`,
never a name imported from it), so one attribute replaced on the module
is seen by every caller, including the kernels that call each other.
The batched `thetas` is a kernel of its own: it computes theta without
calling `theta`, so whatever replaces `theta` (to count or skew theta
values) must replace `thetas` too.
"""

from . import _kernels_py as kernels

BACKEND = "python"
