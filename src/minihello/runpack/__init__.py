"""Runpack images: the typed IR, image assembly and serialization, and the
on-demand pack store."""

from .image import (FORMAT_VERSION, MAGIC, ImageFormatError, PackStore,
                    RunpackImage, compute_hash, deserialize, load_file,
                    serialize, ORIGIN_LOCAL, ORIGIN_NETWORK)
from .lower import compile_package

__all__ = [
    "FORMAT_VERSION", "MAGIC", "ImageFormatError", "ORIGIN_LOCAL", "ORIGIN_NETWORK", "PackStore", "RunpackImage",
    "compile_package", "compute_hash", "deserialize", "load_file", "serialize",
]
