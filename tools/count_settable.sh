#!/usr/bin/env bash
# Settable-surface count: the data members of every struct in
# src/*/*.hpp whose name ends in Config, Params, Policy, Spec, Weights,
# Timings, Capabilities, Distribution or Timeline, i.e. the knobs and
# request fields a caller can set.
#
#   tools/count_settable.sh            print the total, then one line
#                                      per struct ("<count> <file>:<struct>")
#   tools/count_settable.sh --check    fail if the total exceeds the
#                                      ceiling in tools/settable_baseline.txt
#
# The baseline is a ratchet like the coverage floors: a PR that turns
# a knob into a named constant lowers it, and a PR that adds a knob
# must raise it on purpose, with its reason in CHANGES.md.
#
# Counting is token-level and needs no compiler: inside a struct body
# (top brace level only) every statement ending in ';' is a member
# unless it is a function declaration (its first '(' comes before any
# '='), a `using`, `static`, `friend` or nested type declaration.
# Function bodies and nested types sit below the top level, so they
# never count.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="tools/settable_baseline.txt"
mode="${1:-}"

python3 - "$mode" "$BASELINE" src/*/*.hpp <<'EOF'
import re
import sys

mode, baseline_path, *paths = sys.argv[1:]
head = re.compile(
    r"\bstruct\s+(\w+(?:Config|Params|Policy|Spec|Weights|Timings|Capabilities"
    r"|Distribution|Timeline))\s*(?::[^{;]*)?\{")


def strip(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", " ", text)
    return re.sub(r'"(?:\\.|[^"\\])*"', '""', text)


def is_member(stmt):
    stmt = stmt.strip()
    if not stmt or re.match(r"(using|static|friend|struct|class|enum|typedef)\b", stmt):
        return False
    paren, eq = stmt.find("("), stmt.find("=")
    return paren < 0 or (0 <= eq < paren)


counts = []
for path in paths:
    text = strip(open(path).read())
    for m in head.finditer(text):
        depth, stmt, n = 1, "", 0
        for ch in text[m.end():]:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    break
                if depth == 1 and "(" in stmt:
                    stmt = ""  # a function body closed; no ';' follows it
            elif depth == 1:
                if ch == ";":
                    n += is_member(stmt)
                    stmt = ""
                else:
                    stmt += ch
        counts.append((n, f"{path}:{m.group(1)}"))

total = sum(n for n, _ in counts)
if mode == "--check":
    ceiling = None
    with open(baseline_path) as baseline:
        for raw in baseline:
            raw = raw.split("#", 1)[0].strip()
            if raw:
                ceiling = int(raw)
    if ceiling is None:
        sys.exit(f"count_settable: no ceiling in {baseline_path}")
    if total > ceiling:
        sys.exit(f"count_settable: {total} settable fields, above the "
                 f"baseline {ceiling} in {baseline_path}")
    print(f"count_settable: {total} settable fields (baseline {ceiling})")
else:
    print(total)
    for n, where in counts:
        print(f"{n:4d} {where}")
EOF
