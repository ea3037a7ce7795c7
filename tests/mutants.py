"""Mutation sweep: does some tier-1 test fail on a wrong program?

Each mutant is one small change to a copy of ``src/impactseries``.  The
tier-1 tests run on the copy with ``-x``: a failure kills the mutant, and a
mutant that passes every test survives.  A survivor is a missing test, code
that can go, or an equivalent mutant that no output can show, listed in
``EQUIVALENT`` with its reason.

    python tests/mutants.py                   # the replacement mutants
    python tests/mutants.py --deletions       # each statement in a function -> pass
    python tests/mutants.py --deletions --file cli.py --file bsnetwork.py
    python tests/mutants.py --deletions --since REV   # only functions changed since REV

The tests run without ``tests/test_imports.py``, which would fail on almost
any deletion for an import or a private name it leaves unread.  Each mutant
runs alone, under a time limit and an address-space limit, so one that loops
or allocates without end is killed rather than starving the machine.  The
exit status is 1 if a mutant survived that is not an accepted equivalent.
pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "impactseries")

#: Functions never mutated.  A forked sampler child leaves through
#: ``os._exit`` in them; a mutant that skips it lets the child go on running
#: pytest, which then forks further.  ``cli.entrypoint`` leaves through
#: ``os._exit`` too, but stays mutable: tests run it only in child processes.
NEVER_MUTATED = ("_exit_with_counts", "_forked_counts")

#: ``(file, old, new, why)``: ``old`` occurs once in the package's ``file``.
REPLACEMENTS = [
    ("theories.py", "_PROBABILITY_TOL = 1e-9", "_PROBABILITY_TOL = 1e-3",
     "a law's tolerance: a joint row summing to 1 + 1e-7 must be rejected"),
    ("bsnetwork.py", "_UNITARITY_TOL = 1e-12", "_UNITARITY_TOL = 1e-3",
     "a convention unitary to ~2e-5 only must be rejected"),
    ("bsnetwork.py", "if total <= 0.0:", "if total < 0.0:",
     "a cascade of zero total is an error, not a ZeroDivisionError"),
    ("montecarlo.py", "_BLOCKS_PER_WORKER = 48", "_BLOCKS_PER_WORKER = 47",
     "the fan-out threshold"),
    ("cli.py", "_BATCH_ROWS = 256", "_BATCH_ROWS = 255", "the rows written at a time"),
    ("montecarlo.py", "    if len(u_outcome) == 1:\n", "    if False:\n",
     "the one-row counting branch"),
    ("cli.py", "    if degrees:\n        grid = grid * math.pi / 180.0\n", "",
     "a --degrees grid is converted to radians"),
    ("cli.py", '        raise ValueError(f"cannot write --out file: {exc}") from None',
     "        pass", "a failed --out write is an error"),
    ("cli.py", '        raise ValueError(f"cannot parse grid {text!r}: {exc}") from None',
     "        pass", "a grid that is not numbers is an error naming it"),
    ("bsnetwork.py",
     '        if "=" not in line:\n'
     '            raise ValueError(f"line {lineno}: expected \'key = value\', got {raw!r}")\n',
     "", "a geometry line without '=' is an error naming its line"),
    ("cli.py", "    os._exit(code)", "    pass", "the process exits with the command's code"),
    ("cli.py", "        sys.stdout.flush()  #", "        pass  #",
     "standard output is flushed before os._exit, and a closed reader is exit 1"),
    ("cli.py", "handle.read(_GEOMETRY_BYTES + 1)", "handle.read()", "a --geometry read is bounded"),
    ("theories.py", "if target not in CLASS_ROWS:", "if False:",
     "QM has no law for a satellite class"),
    ("theories.py", "    elif target is not Subensemble.LONG:", "    elif False:",
     "the causal rules cover the difference-L class only"),
    ("montecarlo.py", "np.greater_equal(u_class, lo, out=mask)",
     "np.greater(u_class, lo, out=mask)", "a class interval is closed below"),
    ("montecarlo.py", "np.greater_equal(u_outcome, c, out=scratch)",
     "np.greater(u_outcome, c, out=scratch)", "an outcome edge belongs to the next outcome"),
    ("montecarlo.py", "(plus_side1 == 0) | (plus_side1 == n)", "(plus_side1 == 0)",
     "E's Wilson fallback at both ends"),
    ("bsnetwork.py", "    if [len(photon.stages) for photon in geometry] != [1, 2]:",
     "    if False:", "the reference tables fix the stage counts"),
    ("bsnetwork.py", "    for photon in geometry:\n        for short, long in photon.stages:\n",
     "    if [len(photon.stages) for photon in geometry] != [1, 2]:\n"
     '        raise ValueError("reference tables need one stage for photon 1 and two for photon 2")\n'
     "    for photon in geometry:\n        for short, long in photon.stages:\n",
     "a wiring fault is reported before the stage counts"),
    ("cli.py", '        return text if "." in text else text + ".0"',
     "        return float.__repr__(float(text))", "the JSON cells' positional path"),
    ("cli.py", 'handle.write("\\n  ]\\n}\\n")', 'handle.write("\\n  ]\\n}")',
     "the JSON text ends with a newline"),
    ("cli.py", "except (ValueError, MemoryError) as exc:", "except ValueError as exc:",
     "a request that memory cannot hold is one error line, exit 2"),
    ("bsnetwork.py",
     "norm = abs((self.t * self.t.conjugate() + self.r * self.r.conjugate()).real - 1.0)",
     "norm = abs(abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0)",
     "a huge amplitude is not unitary, not an OverflowError"),
    # a copy: PCG64 reads the returned array's memory as four words unchecked,
    # so a reversed view would be read past its row
    ("montecarlo.py", "            return self.row\n", "            return self.row[::-1].copy()\n",
     "a stream's words seed PCG64 in numpy's order"),
]

#: Mutants that no output can show, keyed ``file: why`` for a replacement and
#: ``file function: statement's first line`` for a deletion.
EQUIVALENT = {
    "montecarlo.py: the fan-out threshold":
        "a speed path: every fan-out gives the same counts",
    "cli.py: the rows written at a time":
        "a speed path: every batch size writes the same bytes",
    "cli.py: the JSON cells' positional path":
        "a speed path: the fallback writes the same text",
    "cli.py entrypoint: sys.stderr.flush()":
        "standard error is line-buffered, and the CLI writes it only whole lines",
}


def deletions(path: Path, lines: set[int] | None = None) -> list[tuple[str, str, str]]:
    """``(key, description, mutated source)`` for each statement inside a
    function of ``path``, replaced by ``pass``; docstrings and bare ``pass``
    are kept.  Given ``lines``, only the functions (outermost, decorators
    included) that span one of them are mutated."""
    source = path.read_text(encoding="utf-8")
    starts = [0]  # the offset of each line in source
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    mutants = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name in NEVER_MUTATED:
                    continue
                top = min(node.lineno for node in [child, *child.decorator_list])
                if function is None and lines is not None and lines.isdisjoint(
                    range(top, child.end_lineno + 1)
                ):
                    continue
                inner = child.name if function is None else function
            else:
                inner = function
            if function is not None and isinstance(child, ast.stmt) and not (
                isinstance(child, ast.Pass) or is_docstring(node, child)
            ):
                begin = starts[child.lineno - 1] + child.col_offset
                end = starts[child.end_lineno - 1] + child.end_col_offset
                first = source[begin:end].splitlines()[0].strip()
                mutants.append((
                    f"{path.name} {function}: {first}",
                    f"{path.name}:{child.lineno} {function}: {first}",
                    source[:begin] + "pass" + source[end:],
                ))
            visit(child, inner)

    visit(ast.parse(source), None)
    return mutants


def changed_lines(rev: str) -> dict[str, set[int]]:
    """Per module of the package, the lines of the working tree that ``git
    diff -U0 rev`` adds or changes; where lines are only deleted, the lines on
    both sides of the cut.  A deleted module has none."""
    diff = subprocess.run(
        ["git", "diff", "-U0", "--no-color", "--no-ext-diff", rev, "--", str(PACKAGE)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    lines: dict[str, set[int]] = {}
    name = None
    for text in diff.splitlines():
        if text.startswith("+++ "):
            name = None if text == "+++ /dev/null" else Path(text[4:]).name
        elif text.startswith("@@ ") and name is not None:
            # "@@ -a,b +start,count @@": count is 1 when left out
            start, _, count = text.split()[2][1:].partition(",")
            start, count = int(start), int(count or 1)
            cut = range(start, start + count) if count else (start, start + 1)
            lines.setdefault(name, set()).update(cut)
    return lines


def is_docstring(parent: ast.AST, node: ast.stmt) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(body, list) and body and body[0] is node
        and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def replacements(files: list[str]) -> list[tuple[str, str, str, str]]:
    """``(key, description, file, mutated source)`` for each of ``REPLACEMENTS``
    in ``files``; an ``old`` that does not occur exactly once, or that lies
    in a function of ``NEVER_MUTATED``, is an error."""
    mutants = []
    for file, old, new, why in REPLACEMENTS:
        if file not in files:
            continue
        source = (ROOT / PACKAGE / file).read_text(encoding="utf-8")
        if source.count(old) != 1:
            raise SystemExit(f"{file}: {old!r} occurs {source.count(old)} times, not once")
        line = source[: source.index(old)].count("\n") + 1
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and node.name in NEVER_MUTATED:
                if node.lineno <= line <= node.end_lineno:
                    raise SystemExit(f"{file}: {old!r} lies in {node.name}")
        mutants.append((f"{file}: {why}", f"{file}: {why}", file, source.replace(old, new)))
    return mutants


#: Seconds per mutant: a tier-1 run that takes longer kills its mutant.
TIMEOUT = 180.0


def limit_child() -> None:
    # 2 GiB of address space: the tier-1 tests need a fraction of it
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_tests(copy: Path) -> str:
    """``killed`` or ``survived``: the tier-1 tests, less the import rules,
    on ``copy``; a run past ``TIMEOUT`` seconds is killed, and kills its mutant."""
    env = {
        **os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
    }
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--ignore=tests/test_imports.py", "tests",
    ]
    child = subprocess.Popen(
        command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=limit_child, start_new_session=True,
    )
    try:
        return "survived" if child.wait(timeout=TIMEOUT) == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    finally:
        # the whole session: sampler children and test subprocesses included
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--deletions", action="store_true",
                        help="each statement inside a function -> pass")
    parser.add_argument("--file", action="append",
                        help="a module of the package to mutate (default: every one)")
    parser.add_argument("--since", metavar="REV",
                        help="with --deletions: only functions whose lines `git diff REV` touches")
    args = parser.parse_args()
    if args.since and not args.deletions:
        parser.error("--since needs --deletions")
    files = args.file or sorted(path.name for path in (ROOT / PACKAGE).glob("*.py"))
    changed = changed_lines(args.since) if args.since else {}
    if args.since:
        files = [file for file in files if file in changed]

    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work"))
        if args.deletions:
            mutants = [
                (key, description, file, mutated)
                for file in files
                for key, description, mutated in deletions(
                    ROOT / PACKAGE / file, changed.get(file) if args.since else None
                )
            ]
        else:
            mutants = replacements(files)
        if mutants and run_tests(copy) != "survived":
            raise SystemExit("the tests fail on the unmutated copy")

        survivors, start = [], time.monotonic()
        for number, (key, description, file, mutated) in enumerate(mutants, start=1):
            target = copy / PACKAGE / file
            original = target.read_text(encoding="utf-8")
            target.write_text(mutated, encoding="utf-8")
            try:
                outcome = run_tests(copy)
            finally:
                target.write_text(original, encoding="utf-8")
            if outcome == "survived" and key in EQUIVALENT:
                description += f" (equivalent: {EQUIVALENT[key]})"
            elif outcome == "survived":
                outcome = "SURVIVED"
                survivors.append(description)
            print(f"[{number}/{len(mutants)}] {outcome}: {description}", flush=True)

    print(f"\n{len(mutants)} mutants, {len(survivors)} unaccepted survivors, "
          f"{time.monotonic() - start:.0f} s")
    for description in survivors:
        print(f"  survived: {description}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
