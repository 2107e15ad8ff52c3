"""Runpack image format and the per-engine pack store.

A .rpk file is: magic HRPK, u16 format version, then length-prefixed
sections in order: package name, content hash, class table, constant pool,
method bodies. All integers big-endian. The content hash is SHA-256 over
the serialized name/class-table/constants/bodies sections (everything but
the magic, version, and the hash section itself), so identical packages
compile to byte-identical, identically-hashed images.

The class table is written and read through the codecs of `bio` and `ir`,
and each method body is one length-prefixed `ir.encode` tree. `serialize`
builds the four hashed sections once; `deserialize` checks the hash before
it decodes anything, then checks every reference as it decodes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..bio import (BOOL, BYTES, STR, U8, U16, U32, BadString, Codec, Reader,
                   ShortRead, Writer, list_of, struct, tuple_of)
from ..errors import E_HASH_MISMATCH, EngineError
from . import ir

MAGIC = b"HRPK"
FORMAT_VERSION = 1


class ImageFormatError(Exception):
    """Raised on a bad image: code is one of BadMagic, VersionUnsupported,
    HashMismatch, TruncatedImage, MalformedImage."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


@dataclass
class RunpackImage:
    package: str
    classes: list[ir.ClassCode]
    constants: list[bytes]
    content_hash: bytes = b""  # b"" until serialize or PackStore.install computes it
    version: int = FORMAT_VERSION

    def find_main(self) -> tuple[ir.ClassCode, ir.MethodCode] | None:
        for cls in self.classes:
            for m in cls.methods:
                if m.name == "main" and m.has(ir.MQ_STATIC):
                    return cls, m
        return None


# --- sections -------------------------------------------------------------------

PARAM = struct(ir.IrParam, STR, ir.TYPE, BOOL)
# A method's body travels in the bodies section, not in the class table.
METHOD = struct(ir.MethodCode, STR, U8, list_of(PARAM, U8), ir.TYPE, BOOL, U16)
CLASS = struct(ir.ClassCode, STR, U8, list_of(tuple_of(STR, ir.TYPE)),
               list_of(METHOD))
CLASS_TABLE = list_of(CLASS)
CONSTANTS = list_of(BYTES, U32)


def _sections(image: RunpackImage) -> list[bytes]:
    """The hashed sections in order: package name, class table, constant
    pool, method bodies."""
    name, classes, constants, bodies = Writer(), Writer(), Writer(), Writer()
    STR.write(name, image.package)
    CLASS_TABLE.write(classes, image.classes)
    CONSTANTS.write(constants, image.constants)
    for cls in image.classes:
        for m in cls.methods:
            body = Writer()
            ir.encode(body, m.body)
            bodies.lp_bytes(body.buf)
    return [name.getvalue(), classes.getvalue(), constants.getvalue(),
            bodies.getvalue()]


def _digest(sections: list[bytes]) -> bytes:
    w = Writer()
    for section in sections:
        w.lp_bytes(section)
    return hashlib.sha256(w.buf).digest()


def compute_hash(image: RunpackImage) -> bytes:
    return _digest(_sections(image))


def serialize(image: RunpackImage) -> bytes:
    """The image's .rpk bytes. A lowered image has no content hash until it
    is first needed: here it takes the digest written into the bytes, as
    `PackStore.install` gives it the one it computes."""
    sections = _sections(image)
    digest = _digest(sections)
    if not image.content_hash:
        image.content_hash = digest
    w = Writer().raw(MAGIC).u16(image.version)
    w.lp_bytes(sections[0]).lp_bytes(digest)
    for section in sections[1:]:
        w.lp_bytes(section)
    return w.getvalue()


def _read_section(codec: Codec, data: bytes, what: str):
    r = Reader(data)
    value = codec.read(r)
    if not r.at_end():
        raise ImageFormatError("MalformedImage", f"trailing bytes in {what}")
    return value


def deserialize(data: bytes) -> RunpackImage:
    try:
        r = Reader(data)
        magic = r.raw(4)
        if magic != MAGIC:
            raise ImageFormatError("BadMagic", f"expected {MAGIC!r}")
        version = r.u16()
        if version != FORMAT_VERSION:
            raise ImageFormatError("VersionUnsupported", f"version {version}")
        name_sec = r.lp_bytes()
        digest = r.lp_bytes()
        sections = [name_sec, r.lp_bytes(), r.lp_bytes(), r.lp_bytes()]
    except ShortRead as exc:
        raise ImageFormatError("TruncatedImage", str(exc)) from exc

    actual = _digest(sections)
    if actual != digest:
        raise ImageFormatError("HashMismatch",
                               f"header {digest.hex()[:12]}.. body {actual.hex()[:12]}..")

    _, classes_sec, constants_sec, bodies_sec = sections
    try:
        package = _read_section(STR, name_sec, "package name")
        classes = _read_section(CLASS_TABLE, classes_sec, "class table")
        constants = _read_section(CONSTANTS, constants_sec, "constant pool")
        br = Reader(bodies_sec)
        for cls in classes:
            for m in cls.methods:
                m.body = ir.decode_body(br.lp_bytes(), len(constants),
                                        max(m.n_slots, 1))
        if not br.at_end():
            raise ImageFormatError("MalformedImage", "trailing bytes in bodies")
    except ShortRead as exc:
        raise ImageFormatError("TruncatedImage", str(exc)) from exc
    except (ir.IrFormatError, RecursionError, BadString) as exc:
        # The sender computes the content hash, so it does not vouch for the
        # structure: a body nested past the recursion limit or a name that is
        # not UTF-8 is malformed input, not a crash.
        raise ImageFormatError("MalformedImage", str(exc)) from exc

    return RunpackImage(package, classes, constants, digest, version)


def load_file(path: str) -> RunpackImage:
    with open(path, "rb") as f:
        return deserialize(f.read())


# --- pack store -------------------------------------------------------------------

ORIGIN_LOCAL = "local-disk"
ORIGIN_NETWORK = "network-fetched"


class PackStore:
    """Name -> image map, one per engine.

    A network-fetched image is never silently replaced by an image with a
    different content hash.
    """

    def __init__(self):
        self._entries: dict[str, tuple[RunpackImage, str]] = {}

    def install(self, image: RunpackImage, origin: str = ORIGIN_LOCAL) -> None:
        if not image.content_hash:
            image.content_hash = compute_hash(image)
        existing = self._entries.get(image.package)
        if existing is not None:
            old_image, old_origin = existing
            if old_image.content_hash != image.content_hash:
                if old_origin == ORIGIN_NETWORK:
                    raise EngineError(
                        E_HASH_MISMATCH,
                        f"refusing to replace fetched package '{image.package}' "
                        "with a different image")
            else:
                return  # identical image already present
        self._entries[image.package] = (image, origin)

    def resolve(self, name: str) -> RunpackImage | None:
        entry = self._entries.get(name)
        return entry[0] if entry else None
