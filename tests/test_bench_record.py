"""scripts/bench_record.py: what a BENCH file records, and the comparison of two."""

import importlib.util
import json
import os
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_record", os.path.join(ROOT, "scripts", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def fake_checkout(path, setup_values, correct=True):
    """A checkout whose benchmark prints the next `setup_s`, or one per-layer figure when traced."""
    os.makedirs(path / "benchmarks")
    os.makedirs(path / "src" / "stdcl")
    (path / "src" / "stdcl" / "__init__.py").write_text("")
    (path / "values.json").write_text(json.dumps(setup_values))
    (path / "benchmarks" / "run.py").write_text(textwrap.dedent(f"""
        import json, os, sys
        values = json.load(open("values.json"))
        n = len(os.listdir(".")) - 3  # one marker file per earlier run
        open(f"ran-{{n}}", "w").close()
        traced = sys.argv[sys.argv.index("--trace") + 1] == "1"
        print("cores 2 numpy 2.4.6 blas_threads 1")
        metrics = ({{"data.generate_s": {{"value": 0.5, "unit": "s"}}}} if traced
                   else {{"setup_s": {{"value": values[n], "unit": "s"}}}})
        print(json.dumps({{"correct": {correct!r}, "attempted": 3, "failed": 0, "metrics": metrics}}))
    """))
    return str(path)


def test_records_medians_traced_layers_and_how_each_run_was_launched(tmp_path, capsys):
    checkout = fake_checkout(tmp_path / "c", [5.0, 1.0, 4.0, 2.0, 3.0])
    out = tmp_path / "BENCH_7.json"
    code = bench_record.main(["--checkout", checkout, "--workload", "decoupling", "-o", str(out)])
    assert code == 0
    bench = json.loads(out.read_text())
    entry = bench["workloads"]["decoupling"]
    assert entry["end_to_end"] == {"setup_s": {"median": 3.0, "q1": 2.0, "q3": 4.0, "unit": "s"}}
    assert entry["per_layer"] == {"data.generate_s": {"value": 0.5, "unit": "s"}}
    assert [r["argv"][-1] for r in entry["runs"]] == ["0"] * 5 + ["1"]
    seconds = f"{bench_record.load_spec()['run_seconds']:g}"
    assert entry["runs"][0]["argv"] == ["python3", "benchmarks/run.py", "--workload", "decoupling",
                                        "--seed", "1", "--seconds", seconds, "--trace", "0"]
    assert all(r["environment"] == {"cores": 2, "numpy": "2.4.6", "blas_threads": 1} for r in entry["runs"])
    assert bench["code"]["git_sha"] is None and len(bench["code"]["source_sha256"]) == 64
    assert bench["launch"]["seed"] == 1 and "one run at a time" in bench["launch"]["launcher"]


def test_compare_prints_both_figures_and_the_change(tmp_path, capsys):
    files = []
    for name, values in (("old", [2.0] * 5), ("new", [1.5] * 5)):
        checkout = fake_checkout(tmp_path / name, values)
        files.append(str(tmp_path / f"{name}.json"))
        bench_record.main(["--checkout", checkout, "--workload", "improvement", "-o", files[-1]])
    capsys.readouterr()
    assert bench_record.main(["--compare", *files]) == 0
    table = capsys.readouterr().out
    assert "| improvement | setup_s | 2 | 1.5 | -25.0% |" in table
    assert "| improvement | data.generate_s | 0.5 | 0.5 | +0.0% |" in table


def test_a_run_that_is_not_correct_fails_the_record(tmp_path, capsys):
    checkout = fake_checkout(tmp_path / "c", [1.0] * 5, correct=False)
    out = tmp_path / "BENCH_1.json"
    assert bench_record.main(["--checkout", checkout, "--workload", "large-bank", "-o", str(out)]) == 1
    assert "NOT CORRECT: large-bank run 0" in capsys.readouterr().out
    assert out.exists()
