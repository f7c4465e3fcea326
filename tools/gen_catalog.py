"""Regenerate docs/CATALOG.md from the live query registry.

Usage: python tools/gen_catalog.py
"""

from __future__ import annotations

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
OUT = os.path.join(REPO, "docs", "CATALOG.md")


def oracle_kind(sql: str) -> str:
    if "golden_" in sql or "twr_fixtures" in sql or "/media/" in sql:
        return "golden-table SQL (closed-form fixture truth)"
    if any(k in sql for k in ("HUGEINT", "xor(", "VALUES")) and "perms" in sql:
        return "independent-engine SQL (full sketch chain recomputed)"
    if "HUGEINT" in sql or "xor(" in sql:
        return "independent-engine SQL (hash chain recomputed)"
    return "plain SQL over the testdata views"


def render() -> str:
    """The catalogue page: one row per registered query, naming the
    module and function that implement it (no line numbers, so the
    page stays fresh while code moves inside a module)."""
    from tesseract_wasm_ray.catalog import table

    out = [
        "# Operator catalogue — every `queries()` entry, its "
        "implementation, and its oracle\n\n"
        "Generated from the live registry (`tools/gen_catalog.py` "
        "regenerates\nit); the driver's correctness gate runs every row "
        "at sf0.01 with a\nrows + schema + value-hash comparison against "
        "the listed oracle.\n\n"
        "| operator | entry point | oracle | summary |\n"
        "| --- | --- | --- | --- |\n"
    ]
    for name, (fn, sql) in sorted(table().items()):
        loc = f"catalog/{fn.__module__.rsplit('.', 1)[1]}.py::{fn.__name__}"
        doc = (fn.__doc__ or "").strip().split("\n")[0].rstrip(".").replace("|", "/")
        out.append(f"| `{name}` | `{loc}` | {oracle_kind(sql)} | {doc} |\n")
    return "".join(out)


def main() -> int:
    text = render()
    with open(OUT, "w") as f:
        f.write(text)
    rows = sum(line.startswith("| `") for line in text.splitlines())
    print(f"{rows} rows -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
