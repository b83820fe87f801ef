"""List the executable lines of src/uwbpose that the tier-1 tests never run.

Uses the standard library only. pytest runs in a child interpreter whose
``sitecustomize`` traces, with ``sys.settrace`` and ``threading.settrace``,
every line of src/uwbpose that runs in it, in its threads and in every
Python process it starts (such as the CLI subprocesses of the tests). The
executable lines are those of the modules' code objects (``co_lines``).

    python3 tools/linetrace.py

Prints each executable line that never ran. Exits 1 when pytest fails or
when a listed line lies outside an ``if __name__ == "__main__":`` guard,
else 0.
"""

import ast
import os
import pathlib
import subprocess
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = os.path.realpath(ROOT / "src" / "uwbpose")

# The sitecustomize of every traced interpreter. It writes "<file>\t<line>"
# for each line that ran to HITS/<pid>.txt at exit, and puts its own
# directory first on the PYTHONPATH of any process it starts.
SITECUSTOMIZE = """\
import atexit, os, sys, threading

PACKAGE, HITS, HERE = {package!r}, {hits!r}, os.path.dirname(os.path.abspath(__file__))
hits = {{}}  # file -> lines that ran
states = {{}}  # code object -> (local tracer, lines not yet run), or None outside PACKAGE


def state_of(code):
    filename = os.path.realpath(code.co_filename)
    if not filename.startswith(PACKAGE + os.sep):
        return None
    ran = hits.setdefault(filename, set())
    remaining = {{line for _, _, line in code.co_lines() if line}}

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
            remaining.discard(frame.f_lineno)
        return local

    return local, remaining, ran


def call(frame, event, arg):
    code = frame.f_code
    try:
        state = states[code]
    except KeyError:
        state = states[code] = state_of(code)
    if state is None or not state[1]:  # outside PACKAGE, or every line has run
        return None
    local, remaining, ran = state
    ran.add(frame.f_lineno)
    remaining.discard(frame.f_lineno)
    return local


def child_env(event, args):
    if event == "subprocess.Popen" and isinstance(args[3], dict):
        env = args[3]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [HERE, env.get("PYTHONPATH")]))


def dump():
    sys.settrace(None)
    with open(os.path.join(HITS, f"{{os.getpid()}}.txt"), "a", encoding="utf-8") as handle:
        handle.writelines(f"{{name}}\\t{{line}}\\n" for name, lines in hits.items() for line in lines)


sys.addaudithook(child_env)
atexit.register(dump)
threading.settrace(call)
sys.settrace(call)
"""


def executable_lines(path: str) -> set[int]:
    """Line numbers of every instruction in the code objects of ``path``."""
    lines, codes = set(), [compile(pathlib.Path(path).read_text(encoding="utf-8"), path, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main_guard_lines(path: str) -> set[int]:
    """Lines of the bodies of the module-level ``if __name__ == "__main__":`` blocks of ``path``."""
    tree = ast.parse(pathlib.Path(path).read_text(encoding="utf-8"))
    return {
        line
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        for stmt in node.body
        for line in range(stmt.lineno, stmt.end_lineno + 1)
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        site, hits = os.path.join(tmp, "site"), os.path.join(tmp, "hits")
        os.mkdir(site)
        os.mkdir(hits)
        with open(os.path.join(site, "sitecustomize.py"), "w", encoding="utf-8") as handle:
            handle.write(SITECUSTOMIZE.format(package=PACKAGE, hits=hits))
        path = [site, str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
        status = subprocess.run(command, cwd=ROOT, env=env).returncode
        ran = set()
        dumps = os.listdir(hits)
        for dump in dumps:
            with open(os.path.join(hits, dump), encoding="utf-8") as handle:
                ran.update((name, int(line)) for name, _, line in (row.rpartition("\t") for row in handle))

    missed = 0
    print(f"\nline trace of {PACKAGE} over {len(dumps)} processes:")
    for path in sorted(str(p) for p in pathlib.Path(PACKAGE).rglob("*.py")):
        source = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
        guarded = main_guard_lines(path)
        for line in sorted(executable_lines(path) - {line for name, line in ran if name == path}):
            note = "  (__main__ guard)" if line in guarded else ""
            missed += not note
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}{note}")
    print(f"{missed} executable lines never ran outside a __main__ guard")
    return 1 if status or missed else 0


if __name__ == "__main__":
    sys.exit(main())
