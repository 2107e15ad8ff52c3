"""het: translate a .hlo source package into a runpack (.rpk).

Exit codes: 0 success, 1 source diagnostics, 2 I/O failure. The runpack is
written atomically (temp file + rename); a failing translation leaves no
partial output behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from ..frontend import (FrontendError, SourceErrors, check, load_units,
                        parse_package)
from ..runpack import compile_package, serialize


def translate_dir(package_dir: str):
    """Parse and check one package directory, which emits its IR, and wrap
    the result in an image; returns (image, warnings)."""
    units = load_units(package_dir)
    if not units:
        raise SourceErrors([])
    ast = parse_package(units)
    checked = check(ast)
    image = compile_package(checked)
    return image, checked.warnings


def main(argv: list[str] | None = None) -> int:
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
    parser = argparse.ArgumentParser(
        prog="het",
        description="Translate a mini-hello source package into a runpack.")
    parser.add_argument("package_dir", help="directory containing .hlo sources")
    parser.add_argument("-o", "--output",
                        help="output path (default: <package-name>.rpk)")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.package_dir):
        print(f"het: {args.package_dir}: not a directory", file=sys.stderr)
        return 2
    try:
        image, warnings = translate_dir(args.package_dir)
    except SourceErrors as errs:
        if not errs.diagnostics:
            print("het: no sources found", file=sys.stderr)
        for diag in errs.diagnostics:
            print(diag.render(), file=sys.stderr)
        return 1
    except FrontendError as err:
        print(err.to_diagnostic().render(), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"het: {exc}", file=sys.stderr)
        return 2

    for diag in warnings:
        print(diag.render(), file=sys.stderr)

    out_path = args.output or f"{image.package}.rpk"
    data = serialize(image)
    try:
        out_dir = os.path.dirname(os.path.abspath(out_path))
        fd, tmp_path = tempfile.mkstemp(dir=out_dir, suffix=".rpk.tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp_path, out_path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        print(f"het: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
