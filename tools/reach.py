"""Lines of src/hfl that tier-1 never runs.

Run from the repository root: ``python tools/reach.py [pytest args]``. It runs
the tier-1 suite in this process under ``sys.settrace``, traces only frames
whose code lives in src/hfl, and prints every executable line (docstrings
excluded) that no test ran. It exits 1 if any such line is missing from
EXEMPT, or if an entry of EXEMPT matches no never-run line; otherwise it exits
with pytest's status. Stdlib only, apart from the suite itself.
"""
import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hfl"

# (module, stripped source line) -> why no tier-1 input can or need reach it.
# An entry covers every never-run line of its module with that text.
_SUBPROCESS = "runs in the child of test_closed_reader_ends_without_traceback, which is not traced"
EXEMPT = {
    ("cli", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"): _SUBPROCESS,
    ("cli", "return 1"): _SUBPROCESS,
    ("cli", "sys.exit(main())"): _SUBPROCESS,
}


def executable_lines(path):
    source = path.read_text()
    tree = ast.parse(source)
    docs = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - docs, source.splitlines()


def main(argv):
    import pytest

    prefix, ran = str(SRC) + "/", set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unused, bad = set(EXEMPT), 0
    for path in sorted(SRC.glob("*.py")):
        lines, text = executable_lines(path)
        missed = sorted(n for n in lines if (str(path), n) not in ran)
        for n in missed:
            key = (path.stem, text[n - 1].strip())
            unused.discard(key)
            bad += key not in EXEMPT
            print(f"{path.stem}.py:{n}: {key[1]}" + ("  [exempt]" if key in EXEMPT else ""))
        print(f"{path.stem}: {len(missed)} of {len(lines)} lines never run")
    for module, line in sorted(unused):
        print(f"stale exemption: {module}: {line}")
    if bad or unused:
        print(f"{bad} never-run lines without an exemption, {len(unused)} stale exemptions")
        return 1
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
