#!/usr/bin/env python3
"""Options-used lint for the client cache manager.

Every CacheManager::Options field must pay for itself: some test, bench,
example or dfsbench workload has to set it, or the option is dead weight
that only widens the client's configuration space. This lint parses the
Options struct in src/client/cache_manager.h and fails when a field is set
in no file under tests/, bench/, examples/ or dfsbench/.

A field counts as set when a source file assigns it through a member access
(`opts.field = ...`, `o->field = ...`), names it in a designated initializer
(`.field = ...`), or sets one of its members (`opts.rpc.pool = ...`).
Matching is by field name, not by type.

Run as:  lint_options_used.py [repo_root]
Exit 0 when every field is set somewhere, 1 when one is not, 2 when the
root does not hold src/client/cache_manager.h.
"""

import re
import sys
from pathlib import Path

HEADER = "src/client/cache_manager.h"
USER_DIRS = ("tests", "bench", "examples", "dfsbench")
# The lint self-test's own fixtures set knobs of a made-up Options struct.
EXCLUDED_DIRS = ("tests/lint_fixtures",)
SOURCE_SUFFIXES = (".cc", ".cpp", ".h")

# `Type name = default;` or `Type name;` at the struct's top level.
FIELD_RE = re.compile(
    r"^\s*[A-Za-z_][\w:<>,\s\*&]*?[\s\*&]([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^}]*\})?;")


def options_fields(header: Path) -> list:
    """Field names of `struct Options` inside `class CacheManager`."""
    text = header.read_text()
    cls = text.find("class CacheManager ")
    start = text.find("struct Options {", cls if cls >= 0 else 0)
    if cls < 0 or start < 0:
        return []
    depth = 0
    body = []
    for line in text[start:].splitlines()[1:]:
        code = line.split("//", 1)[0]
        if depth == 0 and code.strip().startswith("}"):
            break
        if depth == 0:
            m = FIELD_RE.match(code)
            if m and "(" not in code:
                body.append(m.group(1))
        depth += code.count("{") - code.count("}")
    return body


def user_sources(root: Path):
    for d in USER_DIRS:
        base = root / d
        if base.is_dir():
            for path in sorted(base.rglob("*")):
                rel = path.relative_to(root).as_posix()
                if any(rel.startswith(x + "/") for x in EXCLUDED_DIRS):
                    continue
                if path.suffix in SOURCE_SUFFIXES and path.is_file():
                    yield path


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    header = root / HEADER
    if not header.is_file():
        print(f"lint_options_used: {root} is not the repo root (missing {HEADER})",
              file=sys.stderr)
        return 2
    fields = options_fields(header)
    if not fields:
        print(f"lint_options_used: found no CacheManager::Options fields in {HEADER}",
              file=sys.stderr)
        return 2
    sources = [p.read_text(errors="replace") for p in user_sources(root)]
    unset = []
    for name in fields:
        setter = re.compile(r"(?:\.|->)\s*" + re.escape(name) + r"\b\s*(?:=(?!=)|\.)")
        if not any(setter.search(text) for text in sources):
            unset.append(name)
    if unset:
        for name in unset:
            print(f"{HEADER}: CacheManager::Options::{name} is set in no file under "
                  f"{', '.join(d + '/' for d in USER_DIRS)}")
        print(f"\n{len(unset)} unused option(s): give each a test or bench that sets it, "
              "or delete it.")
        return 1
    print(f"options-used lint OK ({len(fields)} CacheManager::Options fields, all set)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
