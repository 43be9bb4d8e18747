"""The benchmark's tracer (perfbench/tracing.py) wraps tnexp functions by
module attribute.  Renaming or moving one of them breaks `--trace 1`
runs; this test makes that a tier-1 failure instead."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _wrapped_objects(tracing):
    out = {}
    for where, attr, _, _ in tracing.WRAPPED:
        module, _, cls = where.partition(".")
        target = importlib.import_module("tnexp." + module)
        if cls:
            target = getattr(target, cls)
        out[where, attr] = target.__dict__[attr]
    return out


def test_traced_commands_run_and_unwrap(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("tracing", None)
    import tracing
    from tnexp import cli

    before = _wrapped_objects(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [
            cli.main(["search", "--n", "4", "--kinds", "cover,poset",
                      "--json", str(tmp_path / "n4.json")]),
            cli.main(["exponent", "((.(..))(.(..)))", "tt:6", "--perm", "213645",
                      "--witnesses"]),
            cli.main(["ip", "ht:2", "tt:4", "--solve"]),
            cli.main(["verify-ranks", "--tree", "tt:4", "--probe", "ht:2", "--trials", "1"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]
    assert _wrapped_objects(tracing) == before
    for span in ("cli.main", "trees.parse_tree", "trees.enumerate_shapes",
                 "search.run_search", "search.SearchResult.digest",
                 "covers.cover_exponent", "ilp.solve_ip", "ranks.mat_rank"):
        assert tracer.totals[span + ".calls"] > 0, span
