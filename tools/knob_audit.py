#!/usr/bin/env python3
"""Lists config fields that no caller sets.

Usage, from anywhere:

    python3 tools/knob_audit.py

The audited tree is the checkout the script sits in. A config struct is a
`struct` in a header under `src/` whose name ends in `Config`, `Policy` or
`Thresholds`, or a `struct Config` nested in a class. Each of its data
members is a knob. The script searches `src/`, `bench/`, `examples/`,
`tests/` and `benchmark/` (comments stripped; the declaring header itself
is skipped) for a caller that turns the knob, which is one of:

  * an assignment or designated initializer by name, also of a member or
    element of the field (`x.field = ...`, `p->field = ...`,
    `{.field = ...}`, `x.field.sub = ...`, `x.field[k] = ...`), or
  * a brace-init of the struct, named by its type, with a positional list
    (`Type{a, b}`, `Type v{a, b}`, `Type v = {a, b}`): it sets the first
    as many fields as the list has elements.

A knob with no caller is listed. The search is textual: a field name that
another struct shares counts as set, and an untyped brace list passed as an
argument (`f({a, b})`) is not seen.

Every listed field must have a line in `tools/knob_audit.allow`, of the
form `<Struct>::<field>  # <reason>` (a nested struct is named
`<Owner>::Config`). The script exits 1 when a listed field has no line or
a line names no listed field, 2 when the allowlist has a line without a
reason, and 0 otherwise. Every listed field is printed; an allow-listed
one is marked `(allowed)`.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "bench", "examples", "tests", "benchmark")
SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
CONFIG_NAME = re.compile(r"\w*(Config|Policy|Thresholds)$")
RECORD = re.compile(r"\b(struct|class)\s+(\w+)\s*(?:final\s*)?(?::[^;{]*)?\{")
SKIPPED_DECL = re.compile(
    r"^(static|using|friend|enum|struct|class|union|typedef|template)\b")


# A comment, a string literal, or a char literal; a quote after a digit or
# letter is a digit separator (`10'000`), not a literal.
LEXEME = re.compile(r"""//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|"""
                    r"""(?<!\w)'(?:\\.|[^'\\\n])*'""", re.S)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and the insides of string/char literals, keeping
    offsets and line breaks, so brace matching and regexes see only code."""
    def blank(m):
        t = m.group(0)
        if t[0] in "\"'":
            return t[0] + " " * (len(t) - 2) + t[-1]
        return re.sub(r"[^\n]", " ", t)
    return LEXEME.sub(blank, text)


def matching(text: str, open_at: int) -> int:
    """Index of the bracket closing the one at `open_at`."""
    pairs = {"{": "}", "(": ")", "[": "]"}
    stack = []
    for i in range(open_at, len(text)):
        c = text[i]
        if c in pairs:
            stack.append(pairs[c])
        elif stack and c == stack[-1]:
            stack.pop()
            if not stack:
                return i
    return len(text) - 1


def top_level_split(body: str, sep: str) -> list:
    """Splits on `sep` outside (), {}, [] and, for commas, template argument
    lists; a brace-delimited member function body also ends a piece."""
    parts, depth, angle, cur, i = [], 0, 0, [], 0
    while i < len(body):
        c = body[i]
        prev, nxt = body[i - 1:i], body[i + 1:i + 2]
        if c in "([{":
            if c == "{" and depth == 0 and sep == ";" and \
                    "(" in "".join(cur).split("=")[0]:
                end = matching(body, i)
                parts.append("".join(cur) + body[i:end + 1])
                cur, i = [], end + 1
                continue
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif (sep == "," and c == "<" and depth == 0 and re.match(r"\w", prev)
              and nxt not in ("<", "=")):
            angle += 1  # `a<b` opens a template argument list; `a << b` not
        elif c == ">" and depth == 0 and angle and prev != "-":
            angle -= 1
        if c == sep and depth == 0 and angle == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
        i += 1
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def fields_of(body: str) -> list:
    """Data members of a struct body, in declaration order."""
    body = re.sub(r"\b(public|private|protected)\s*:", " ", body)
    names = []
    for decl in top_level_split(body, ";"):
        decl = " ".join(decl.split())
        if SKIPPED_DECL.match(decl) or "operator" in decl:
            continue
        head = re.split(r"=|\{", decl, maxsplit=1)[0]
        if "(" in head or "~" in head:
            continue  # a member function or constructor
        m = re.search(r"(\w+)\s*(\[[^\]]*\])?\s*$", head)
        if m and len(head.split()) >= 2:
            names.append(m.group(1))
    return names


def config_structs(header: Path, text: str) -> list:
    """(qualified name, fields) of every config struct in one header."""
    records = []
    for m in RECORD.finditer(text):
        start = m.end() - 1
        records.append((m.group(2), start, matching(text, start),
                        m.group(1)))
    found = []
    for name, start, end, kind in records:
        if kind != "struct":
            continue
        owners = [r for r in records if r[1] < start and end < r[2]]
        owner = max(owners, key=lambda r: r[1])[0] if owners else None
        if name == "Config" and owner:
            qualified = f"{owner}::Config"
        elif CONFIG_NAME.match(name):
            qualified = f"{owner}::{name}" if owner else name
        else:
            continue
        found.append((qualified, fields_of(text[start + 1:end]), header))
    return found


def positional_count(text: str, open_at: int) -> int:
    """Number of positional elements in the brace list at `open_at`; 0 for
    an empty or designated list."""
    inner = text[open_at + 1:matching(text, open_at)]
    elems = top_level_split(inner, ",")
    if not elems or elems[0].startswith("."):
        return 0
    return len(elems)


ASSIGNED = re.compile(
    r"(?:\.|->)\s*(\w+)\s*(?:(?:\.\w+|\[[^\]]*\])\s*)*=(?!=)")


def set_fields(qualified: str, fields: list, sources: dict, assigned: dict,
               header: Path) -> set:
    short = qualified.split("::")[-1]
    name = qualified if short == "Config" else short
    brace = re.compile(r"\b" + re.escape(name) +
                       r"\b\s*(?:\w+\s*)?(?:=\s*)?\{")
    turned = {f for f in fields if assigned.get(f, set()) - {header}}
    for path, text in sources.items():
        if path == header or name not in text:
            continue
        for m in brace.finditer(text):
            if re.search(r"\b(struct|class)\s+$", text[:m.start()][-8:]):
                continue  # a definition of a same-named type, not an init
            turned.update(fields[:positional_count(text, m.end() - 1)])
    return turned


def read_allowlist(path: Path):
    allowed, bad = {}, []
    for n, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        if not reason.strip():
            bad.append(f"{path.name}:{n}: no reason given: {line}")
        allowed[name.strip()] = n
    return allowed, bad


def main() -> int:
    allow_path = ROOT / "tools" / "knob_audit.allow"
    allowed, bad = read_allowlist(allow_path)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 2

    sources = {}
    for d in SEARCHED:
        for p in sorted((ROOT / d).rglob("*")):
            if p.suffix in SUFFIXES and p.is_file():
                sources[p] = strip_comments_and_strings(p.read_text())

    structs = []
    for path, text in sources.items():
        if path.suffix == ".hpp" and path.parts[len(ROOT.parts)] == "src":
            structs += config_structs(path, text)

    assigned = {}  # field name -> files that assign it
    for path, text in sources.items():
        for m in ASSIGNED.finditer(text):
            assigned.setdefault(m.group(1), set()).add(path)

    unset, knobs = [], 0
    for qualified, fields, header in structs:
        knobs += len(fields)
        turned = set_fields(qualified, fields, sources, assigned, header)
        rel = header.relative_to(ROOT)
        unset += [(f"{qualified}::{f}", rel) for f in fields
                  if f not in turned]

    missing = [(n, h) for n, h in unset if n not in allowed]
    listed = {n for n, _ in unset}
    stale = sorted(n for n in allowed if n not in listed)
    print(f"knob_audit: {len(structs)} config structs, {knobs} fields, "
          f"{len(unset)} unset, {len(missing)} not allow-listed")
    for name, header in unset:
        mark = "  (allowed)" if name in allowed else ""
        print(f"  {name}  ({header}){mark}")
    for name in stale:
        print(f"  stale allowlist line {allowed[name]}: {name} is set "
              f"by a caller or no longer exists")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
