"""Exception types shared across the library, and the exit code of each.

``cli.main`` returns the ``exit_code`` of the error that ends a command,
naming its ``stage``, if any; any other exception is a program fault.

=  ======================================================================
2  usage: flags that do not fit together (:class:`UsageError`), or a flag
   out of its range (argparse)
3  input: a missing, malformed or out-of-range file, or an unusable
   sequence (:class:`InHandError` and every class not named below)
4  registration: :class:`UnderConstrainedError`, :class:`NoContactError`,
   :class:`DegenerateConfigurationError`, :class:`DivergenceError`
5  meshing: :class:`EmptyMeshError`, :class:`OpenMeshError`
=  ======================================================================
"""

from __future__ import annotations


class InHandError(Exception):
    """Base class for all library-specific errors."""
    exit_code = 3
    stage: str | None = None


class UsageError(InHandError):
    """Command-line values that do not fit together, found after parsing."""
    exit_code = 2


class InvalidDepthError(InHandError):
    """A depth value was zero or negative where a positive depth is required."""


class EmptyInputError(InHandError):
    """Too little input: an empty cloud or empty correspondence data, a cloud
    with fewer points than the operation's minimum (k for normals), or a
    synthetic frame with no visible surface points."""


class UnderConstrainedError(InHandError):
    """Not enough effective (positively weighted) pairs to determine a pose."""
    exit_code, stage = 4, "registration"


class DegenerateConfigurationError(InHandError):
    """Point configuration is collinear/coincident; the solve is ambiguous."""
    exit_code, stage = 4, "registration"


class NoContactError(InHandError):
    """Contact search exhausted its distance cap without finding two bones."""
    exit_code, stage = 4, "registration"


class DivergenceError(InHandError):
    """ICP refinement found no usable correspondences at its starting pose."""
    exit_code, stage = 4, "registration"


class EmptyMeshError(InHandError):
    """Surface extraction found no zero crossing inside observed space."""
    exit_code, stage = 5, "meshing"


class OpenMeshError(InHandError):
    """A probe that requires a closed (watertight) mesh got an open one."""
    exit_code, stage = 5, "meshing"


class FileFormatError(InHandError):
    """A data file (PLY, box file, match file, ground truth) is malformed or unsupported."""


class ManifestError(InHandError):
    """A sequence manifest is missing, malformed, or references absent files."""
