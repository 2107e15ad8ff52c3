"""Assembly of a runpack image from a checked package.

The checker emits each class's IR and the constant pool while it checks
the package (`frontend/checker.py`), so compiling is wrapping them in an
image.
"""

from __future__ import annotations

from .image import RunpackImage


def compile_package(pkg) -> RunpackImage:
    """The image of a `frontend.checker.CheckedPackage`."""
    return RunpackImage(pkg.name, pkg.classes, pkg.constants)
