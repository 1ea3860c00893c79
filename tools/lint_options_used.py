#!/usr/bin/env python3
"""Options-used lint for the client cache manager and the token manager.

Every CacheManager::Options and TokenManager::Options field must pay for
itself: some test, bench, example or dfsbench workload has to set it, or the
option is dead weight that only widens the configuration space. This lint
parses each Options struct (src/client/cache_manager.h,
src/tokens/token_manager.h) and fails when a field is set in no file under
tests/, bench/, examples/ or dfsbench/.

A field counts as set when a source file assigns it through a member access
(`opts.field = ...`, `o->field = ...`), names it in a designated initializer
(`.field = ...`), or sets one of its members (`opts.rpc.pool = ...`).
Matching is by field name, not by type.

Run as:  lint_options_used.py [repo_root]
Exit 0 when every field is set somewhere, 1 when one is not, 2 when the
root lacks one of the headers or a header has no Options fields.
"""

import re
import sys
from pathlib import Path

# (header, class whose nested `struct Options` is linted).
TARGETS = (
    ("src/client/cache_manager.h", "CacheManager"),
    ("src/tokens/token_manager.h", "TokenManager"),
)
USER_DIRS = ("tests", "bench", "examples", "dfsbench")
# The lint self-test's own fixtures set knobs of a made-up Options struct.
EXCLUDED_DIRS = ("tests/lint_fixtures",)
SOURCE_SUFFIXES = (".cc", ".cpp", ".h")

# `Type name = default;` or `Type name;` at the struct's top level.
FIELD_RE = re.compile(
    r"^\s*[A-Za-z_][\w:<>,\s\*&]*?[\s\*&]([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^}]*\})?;")

# An innermost template argument list, `<...>` with no `<` or `>` inside.
TEMPLATE_ARGS_RE = re.compile(r"<[^<>]*>")


def options_fields(header: Path, cls_name: str) -> list:
    """Field names of `struct Options` inside `class <cls_name>`."""
    text = header.read_text()
    cls = text.find(f"class {cls_name} ")
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
            # Drop template arguments first, so a `std::function<bool(T)>`
            # field is not mistaken for a method by its parentheses.
            flat = code
            while TEMPLATE_ARGS_RE.search(flat):
                flat = TEMPLATE_ARGS_RE.sub("", flat)
            m = FIELD_RE.match(flat)
            if m and "(" not in flat:
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
    targets = []
    for header, cls in TARGETS:
        if not (root / header).is_file():
            print(f"lint_options_used: {root} is not the repo root (missing {header})",
                  file=sys.stderr)
            return 2
        fields = options_fields(root / header, cls)
        if not fields:
            print(f"lint_options_used: found no {cls}::Options fields in {header}",
                  file=sys.stderr)
            return 2
        targets.append((header, cls, fields))
    sources = [p.read_text(errors="replace") for p in user_sources(root)]
    unset = []
    for header, cls, fields in targets:
        for name in fields:
            setter = re.compile(r"(?:\.|->)\s*" + re.escape(name) + r"\b\s*(?:=(?!=)|\.)")
            if not any(setter.search(text) for text in sources):
                unset.append(f"{header}: {cls}::Options::{name}")
    if unset:
        for where in unset:
            print(f"{where} is set in no file under "
                  f"{', '.join(d + '/' for d in USER_DIRS)}")
        print(f"\n{len(unset)} unused option(s): give each a test or bench that sets it, "
              "or delete it.")
        return 1
    counts = ", ".join(f"{len(fields)} {cls}::Options" for _, cls, fields in targets)
    print(f"options-used lint OK ({counts} fields, all set)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
