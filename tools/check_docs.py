#!/usr/bin/env python3
"""Docs gates, stdlib-only. Run from anywhere: paths resolve from the repo root.

Six checks, all fast enough for a pre-commit reflex:

1. Link check: every relative markdown link in README.md and docs/*.md
   must resolve to a file or directory inside the repo. External
   schemes (http/https/mailto), pure fragments (#...), and links that
   escape the repo tree (the CI badge resolves against the forge, not
   the checkout) are skipped.

2. Knob grep gate: every code-quoted identifier in the first column of
   a table row in docs/operations.md must appear as an identifier
   somewhere under src/. Docs cannot name a knob the code no longer
   (or never) had.

3. Bench name gate: every code-quoted `bench_<name>` or
   `BENCH_<name>.json` in README.md and docs/*.md must name an existing
   bench/bench_<name>.cpp. Docs cannot cite a deleted bench or its JSON.

4. Count gate: every "<N> GoogleTest suites", "<N> ctest entries",
   "<N> bench drivers" and "<N> runnable examples" in README.md and
   docs/*.md must equal, respectively: the tbr_add_test( calls in
   tests/CMakeLists.txt; the entries a non-sanitized build registers (one
   per tbr_add_test( call without FAMILIES, one per family of a call
   with it, and one per add_test( in examples/ and tools/); the
   TBR_BENCHES entries in bench/CMakeLists.txt; and the .cpp files in
   examples/.

5. Citation gate: every `<name>.md` named in a file under src/, bench/,
   tests/, tools/ or examples/ must resolve from the repo root or from
   docs/. Code cannot cite a document the tree does not have.

6. Repo map gate: the code-quoted `src/<dir>/` rows of README.md's
   "Repo map" table must name exactly the directories under src/. A
   module cannot be added without a row, or deleted and keep one.

Exit code 0 = clean; 1 = any failure, each printed on its own line.
"""
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# [text](target) — but not images' inner part or reference defs; good
# enough for the hand-written markdown in this tree.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# | `knob_name` | ... — first cell of a table row, code-quoted.
KNOB_RE = re.compile(r"^\|\s*`([A-Za-z_][A-Za-z0-9_]*)`\s*\|")
# A code span, and a bench named inside one (wildcards such as `bench_*`
# or `BENCH_<name>.json` name no bench and do not match).
CODE_RE = re.compile(r"`([^`\n]+)`")
BENCH_RE = re.compile(r"\bbench_([a-z0-9_]+)|\bBENCH_([a-z0-9_]+)\.json")
# "<N> GoogleTest suites" and friends; N is compared against the tree.
COUNT_RE = re.compile(r"\b(\d+) (GoogleTest suites|ctest entries|"
                      r"bench drivers|runnable examples)\b")
# One tbr_add_test(...) call, arguments included (they never nest parens),
# and the keywords that end a FAMILIES list.
TBR_ADD_TEST_RE = re.compile(r"^\s*tbr_add_test\(([^)]*)\)", re.MULTILINE)
TBR_ADD_TEST_KEYWORDS = ("LABELS", "TIMEOUT", "FAMILIES")
# A markdown file named in code: `README.md`, `docs/operations.md`.
MD_NAME_RE = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")
# README's "## Repo map" section, up to the next heading, and a row of it
# that names one src/ directory: | `src/core/` | ... |
REPO_MAP_RE = re.compile(r"^## Repo map$(.*?)(?=^## |\Z)",
                         re.MULTILINE | re.DOTALL)
SRC_ROW_RE = re.compile(r"^\|\s*`src/([\w-]+)/`\s*\|", re.MULTILINE)
CODE_DIRS = ("src", "bench", "tests", "tools", "examples")


def md_files():
    yield REPO / "README.md"
    yield from sorted((REPO / "docs").glob("*.md"))


def check_links():
    failures = []
    for md in md_files():
        text = md.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            target = target.split("#", 1)[0]  # strip fragment
            if not target:
                continue  # pure fragment
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):
                continue  # http:, https:, mailto:, ...
            resolved = (md.parent / target).resolve()
            if not resolved.is_relative_to(REPO):
                continue  # escapes the checkout (e.g. the CI badge link)
            if not resolved.exists():
                failures.append(
                    f"{md.relative_to(REPO)}: broken link -> {target}")
    return failures


def check_knobs():
    ops = REPO / "docs" / "operations.md"
    if not ops.exists():
        return [f"{ops.relative_to(REPO)}: missing"]
    knobs = []
    for line in ops.read_text(encoding="utf-8").splitlines():
        m = KNOB_RE.match(line)
        if m and m.group(1) not in ("knob", "name"):  # header rows
            knobs.append(m.group(1))
    if not knobs:
        return ["docs/operations.md: no knob tables found (gate is vacuous)"]
    haystack = "\n".join(
        p.read_text(encoding="utf-8", errors="replace")
        for p in sorted(SRC.rglob("*"))
        if p.suffix in (".hpp", ".cpp") and p.is_file())
    failures = []
    for knob in knobs:
        if not re.search(rf"\b{re.escape(knob)}\b", haystack):
            failures.append(
                f"docs/operations.md: knob `{knob}` not found under src/")
    return failures


def check_bench_names():
    failures = []
    for md in md_files():
        for span in CODE_RE.findall(md.read_text(encoding="utf-8")):
            for binary, json_name in BENCH_RE.findall(span):
                name = binary or json_name
                if not (REPO / "bench" / f"bench_{name}.cpp").exists():
                    failures.append(
                        f"{md.relative_to(REPO)}: `{span}` names no "
                        f"bench/bench_{name}.cpp")
    return failures


def ctest_entries(suite_calls):
    entries = 0
    for args in suite_calls:
        words = args.split()
        if "FAMILIES" not in words:
            entries += 1
            continue
        for word in words[words.index("FAMILIES") + 1:]:
            if word in TBR_ADD_TEST_KEYWORDS:
                break
            entries += 1
    for top in ("examples", "tools"):
        text = (REPO / top / "CMakeLists.txt").read_text(encoding="utf-8")
        entries += len(re.findall(r"^\s*add_test\(", text, re.MULTILINE))
    return entries


def tree_counts():
    tests = (REPO / "tests" / "CMakeLists.txt").read_text(encoding="utf-8")
    benches = (REPO / "bench" / "CMakeLists.txt").read_text(encoding="utf-8")
    bench_list = re.search(r"set\(TBR_BENCHES\s+([^)]*)\)", benches)
    suite_calls = TBR_ADD_TEST_RE.findall(tests)
    return {
        "GoogleTest suites": len(suite_calls),
        "ctest entries": ctest_entries(suite_calls),
        "bench drivers": len(bench_list.group(1).split()) if bench_list else 0,
        "runnable examples": len(list((REPO / "examples").glob("*.cpp"))),
    }


def check_counts():
    actual = tree_counts()
    failures = []
    for md in md_files():
        for number, what in COUNT_RE.findall(md.read_text(encoding="utf-8")):
            if int(number) != actual[what]:
                failures.append(
                    f"{md.relative_to(REPO)}: says {number} {what}, "
                    f"the tree has {actual[what]}")
    return failures


def check_md_citations():
    failures = []
    for top in CODE_DIRS:
        for path in sorted((REPO / top).rglob("*")):
            if not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for lineno, line in enumerate(text.splitlines(), 1):
                for name in MD_NAME_RE.findall(line):
                    if not ((REPO / name).is_file() or
                            (REPO / "docs" / name).is_file()):
                        failures.append(
                            f"{path.relative_to(REPO)}:{lineno}: cites "
                            f"{name}, found neither at the repo root nor "
                            f"in docs/")
    return failures


def check_repo_map():
    section = REPO_MAP_RE.search(
        (REPO / "README.md").read_text(encoding="utf-8"))
    if not section:
        return ["README.md: no \"## Repo map\" section"]
    rows = set(SRC_ROW_RE.findall(section.group(1)))
    dirs = {p.name for p in SRC.iterdir() if p.is_dir()}
    return ([f"README.md: Repo map has no `src/{d}/` row"
             for d in sorted(dirs - rows)] +
            [f"README.md: Repo map row `src/{d}/` names no directory "
             f"under src/" for d in sorted(rows - dirs)])


def main():
    failures = (check_links() + check_knobs() + check_bench_names() +
                check_counts() + check_md_citations() + check_repo_map())
    for f in failures:
        print(f"FAIL {f}")
    if failures:
        return 1
    n_files = sum(1 for _ in md_files())
    print(f"docs OK: {n_files} markdown files, links resolve, "
          f"operations.md knobs all exist under src/, cited benches exist, "
          f"counts match the tree, code cites only existing docs, "
          f"the repo map lists every src/ directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
