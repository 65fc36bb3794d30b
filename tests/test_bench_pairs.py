"""scripts/bench_pairs.py: run order, win counting and the summary table."""

import importlib.util
import json
import os
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def fake_checkout(path, name, values, order_log):
    """A checkout whose benchmark logs its name and prints the next value of each metric."""
    os.makedirs(path / "benchmarks")
    (path / "values.json").write_text(json.dumps(values))
    (path / "benchmarks" / "run.py").write_text(textwrap.dedent(f"""
        import json
        values = json.load(open("values.json"))
        with open({str(order_log)!r}, "a") as f:
            f.write({name!r} + "\\n")
        n = sum(1 for _ in open({str(order_log)!r}) if _.strip() == {name!r}) - 1
        print("noise line")
        print(json.dumps({{"correct": True, "failed": 0,
                          "metrics": {{k: {{"value": v[n]}} for k, v in values.items()}}}}))
    """))
    return str(path)


def test_alternates_sides_and_counts_wins(tmp_path, capsys):
    order_log = tmp_path / "order.log"
    parent = fake_checkout(tmp_path / "p", "parent", {
        "train_samples_per_s": [100, 100, 100, 100], "peak_rss_mb": [50, 50, 50, 50]}, order_log)
    change = fake_checkout(tmp_path / "c", "change", {
        "train_samples_per_s": [110, 100, 90, 120], "peak_rss_mb": [49, 50, 51, 40]}, order_log)
    code = bench_pairs.main([parent, change, "--workload", "decoupling", "--pairs", "4", "--seed", "0",
                             "--seconds", "0"])
    assert code == 0
    assert order_log.read_text().split() == ["parent", "change", "change", "parent"] * 2
    table = capsys.readouterr().out
    # higher is better for throughput, lower for memory; the tie in pair 2 counts for neither side
    assert "| decoupling | train_samples_per_s | 100 [100, 100] | 105 [97.5, 112.5] | +5.0% | 2/4 | inf |" in table
    assert "| decoupling | peak_rss_mb | 50 [50, 50] | 49.5 [46.75, 50.25] | -1.0% | 2/4 | inf |" in table


def test_a_run_that_is_not_correct_fails_the_comparison(tmp_path, capsys):
    order_log = tmp_path / "order.log"
    parent = fake_checkout(tmp_path / "p", "parent", {"setup_s": [1.0, 1.0]}, order_log)
    change = fake_checkout(tmp_path / "c", "change", {"setup_s": [1.0, 1.0]}, order_log)
    (tmp_path / "c" / "benchmarks" / "run.py").write_text(
        'import json\nprint(json.dumps({"correct": False, "failed": 1, "metrics": {"setup_s": {"value": 1.0}}}))\n'
    )
    assert bench_pairs.main([parent, change, "--workload", "decoupling", "--pairs", "2", "--seed", "0"]) == 1
    assert "NOT CORRECT: decoupling pair 0 change" in capsys.readouterr().out


def test_a_crashing_run_stops_the_comparison(tmp_path):
    order_log = tmp_path / "order.log"
    parent = fake_checkout(tmp_path / "p", "parent", {"setup_s": [1.0]}, order_log)
    change = fake_checkout(tmp_path / "c", "change", {"setup_s": [1.0]}, order_log)
    (tmp_path / "c" / "benchmarks" / "run.py").write_text("raise SystemExit(2)\n")
    with pytest.raises(SystemExit, match="exited 2"):
        bench_pairs.main([parent, change, "--workload", "decoupling", "--pairs", "1", "--seed", "0"])
