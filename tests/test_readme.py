"""The README's Python examples run as shown.

Each statement of the README's ``python`` blocks runs in one namespace, in
order, from the repository root.  A statement whose comment shows a value
(``sol.total  # 10.0``) must evaluate to it, and one whose comment shows
``ValueError: message`` must raise that error with that message.  The
``--algo | reads`` table lists what ``bench_cli.PARAMS`` says each
``--algo`` reads, and the sentence on ``counters`` names the keys of
``HopTableCache.counters()`` in order.
"""

import ast
import re
from pathlib import Path

import pytest

from hcconfl import HopTableCache, bench_cli, parse_tiny
from hcconfl.objective import CostBreakdown

from test_bench_cli import readme_uflp_text
from test_instance_model import UFLP_BEASLEY

ROOT = Path(__file__).parent.parent


def _shown_value(comment: str):
    """The value a comment shows: its longest leading run of words that is
    a Python literal, or, for a cost breakdown, its ``name value`` pairs."""
    words = comment.split()
    for n in range(len(words), 0, -1):
        try:
            return ast.literal_eval(" ".join(words[:n]))
        except (ValueError, SyntaxError):
            pass
    pairs = re.fullmatch(r"\w+ [\d.]+( \+ \w+ [\d.]+)*", comment)
    assert pairs is not None, f"no value shown in {comment!r}"
    return CostBreakdown(
        **{f"{name}_cost": float(v) for name, v in re.findall(r"(\w+) ([\d.]+)", comment)}
    )


def test_readme_python_blocks_show_what_the_code_returns(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2  # "Quick start" and the open-set block
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    checked = []
    for block in blocks:
        lines = block.splitlines()
        for statement in ast.parse(block).body:
            code = ast.get_source_segment(block, statement)
            comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
            error = re.fullmatch(r"ValueError: (.*)", comment)
            if error:
                with pytest.raises(ValueError, match=re.escape(error.group(1))):
                    exec(code, namespace)
            elif isinstance(statement, ast.Expr) and comment:
                assert eval(code, namespace) == _shown_value(comment), code
            else:
                exec(code, namespace)
                continue
            checked.append(code)
    # 7 values in "Quick start"; one value and three errors in the open-set block
    assert len(checked) == 11


def test_readme_algo_table_lists_the_options_each_algo_reads():
    readme = (ROOT / "README.md").read_text()
    table = re.search(r"\| `--algo` \| reads \|\n\|---\|---\|\n((?:\|.*\n)+)", readme)
    assert table is not None
    shown = dict(re.findall(r"\| `([\w-]+)` \| (.*) \|", table.group(1)))
    (algo,) = (a for a in bench_cli.build_parser()._actions if a.dest == "algo")
    read = {
        name: ", ".join(f"`{option}`" for option, _, algos, _ in bench_cli.PARAMS.values()
                        if name in algos) or "none"
        for name in algo.choices
    }
    assert shown == read


def test_readme_uflp_file_holds_the_tiny_instances_costs():
    # test_merge_instances_matches_tiny_fixture merges UFLP_BEASLEY into tiny1
    assert readme_uflp_text() == UFLP_BEASLEY


def test_readme_counters_sentence_names_every_counter_in_order():
    readme = " ".join((ROOT / "README.md").read_text().split())
    (sentence,) = re.findall(r"Its `counters` are [^.]*\.", readme)
    # the sentence's subject and the tree builder it credits aside
    named = [w for w in re.findall(r"`(\w+)`", sentence) if w not in ("counters", "nrbi")]
    inst = parse_tiny((ROOT / "tests" / "data" / "tiny1.txt").read_text())
    assert named == list(HopTableCache(inst).counters())
