"""The whole harness on copies of the tree: a corrupted recurrence is caught,
and a directory without the package source is refused."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"

# swaps columns 2 and 3 from row 5 on; row sums and the first column stay
# right, so the program's own asserts pass and only the values are wrong
CORRUPTION = '''

_andre_row = andre_row


def andre_row(n, prev=()):
    row = _andre_row(n, prev)
    return row[:1] + row[2:3] + row[1:2] + row[3:] if n >= 5 else row
'''


def copy_tree(root: Path, with_src: bool) -> Path:
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(SRC, root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def bench(root: Path, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def test_corrupted_recurrence_fails_cells(tmp_path):
    root = copy_tree(tmp_path, with_src=True)
    with open(root / "src" / "altruns" / "run_counts.py", "a") as f:
        f.write(CORRUPTION)
    proc = bench(root, "--workload", "cells", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    root = copy_tree(tmp_path, with_src=False)
    proc = bench(root, "--workload", "interactive", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
