"""tools/bench_pairs.py on made-up runs: the verdict fields of its summary,
which runs it asks for, and the name it gives each checkout."""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(parent, change):
    out = []
    for seed, (a, b) in enumerate(zip(parent, change)):
        out.append({"workload": "w", "seed": seed, "side": "parent", "x": a})
        out.append({"workload": "w", "seed": seed, "side": "change", "x": b})
    return out


def _summary(parent, change, better="higher", bound=0.1):
    return bench_pairs.summarize(_runs(parent, change), ["w"], {"x": better}, {"x": bound})["w"]["x"]


PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_gain_needs_nine_wins_and_a_median_gain_past_the_parent_iqr():
    row = _summary(PARENT, [p + 5 for p in PARENT])
    assert (row["change_wins"], row["gain_shown"], row["within_bound"]) == (10, True, True)
    # nine wins of ten still show a gain; eight do not
    assert _summary(PARENT, [p + 5 for p in PARENT[:9]] + [90])["gain_shown"]
    assert not _summary(PARENT, [p + 5 for p in PARENT[:8]] + [90, 90])["gain_shown"]
    # ten wins by less than the parent's spread (IQR 1.5) show none
    assert not _summary(PARENT, [p + 1 for p in PARENT])["gain_shown"]


def test_bound_is_a_share_of_the_parent_median_in_the_worse_direction():
    assert _summary(PARENT, [p - 9 for p in PARENT])["within_bound"]
    assert not _summary(PARENT, [p - 11 for p in PARENT])["within_bound"]
    lower = _summary(PARENT, [p + 9 for p in PARENT], better="lower")
    assert (lower["within_bound"], lower["gain_shown"], lower["parent_wins"]) == (True, False, 10)
    assert not _summary(PARENT, [p + 11 for p in PARENT], better="lower")["within_bound"]
    assert _summary(PARENT, [p - 30 for p in PARENT], better="lower")["gain_shown"]


def test_every_workload_gets_one_traced_run_per_side_at_seed_7(tmp_path, monkeypatch):
    workloads = ["grid", "frontier", "theta"]
    bench = {
        "run_seconds": 1,
        "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": "checks_per_s", "better": "higher", "bound": 0.1}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def fake_run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout, workload, seed, trace))
        return {"correct": True, "attempted": 1, "failed": 0, "checks_per_s": 1.0}

    out = tmp_path / "out.json"
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "revision", lambda checkout: checkout)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "P", "--change", str(tmp_path),
                                      "--seeds", "1-10", "--out", str(out)])
    assert bench_pairs.main() == 0
    doc = json.loads(out.read_text())
    traced = [(r["workload"], r["side"], r["seed"], r["trace"]) for r in doc["traced_seed_7"]]
    assert traced == [(w, side, 7, 1) for w in workloads for side in ("parent", "change")]
    assert [c for c in calls if c[3] == 1] == [
        (checkout, w, 7, 1) for w in workloads for checkout in ("P", str(tmp_path))
    ]
    assert len(doc["runs"]) == 2 * 10 * len(workloads) and all(c[3] == 0 for c in calls[:60])


def _tree(path):
    """A one-commit git tree with one source file, and its short hash."""
    (path / "src" / "pkg").mkdir(parents=True)
    (path / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    git = ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"], ["rev-parse", "--short", "HEAD"]):
        proc = subprocess.run(git + args, check=True, capture_output=True, text=True)
    return proc.stdout.strip()


def test_an_edited_copy_of_a_tree_gets_another_name(tmp_path):
    clean = tmp_path / "clean"
    head = _tree(clean)
    name = bench_pairs.revision(str(clean))
    assert name == f"{head}+src:{bench_pairs.src_digest(str(clean))}"
    edited = shutil.copytree(clean, tmp_path / "edited")
    assert bench_pairs.revision(str(edited)) == name
    (edited / "src" / "pkg" / "mod.py").write_text("X = 2\n")
    assert bench_pairs.revision(str(edited)).startswith(f"{head}+src:")
    assert bench_pairs.revision(str(edited)) != name
    # what running leaves under src/ does not change the name
    (clean / "src" / "pkg" / "__pycache__").mkdir()
    (clean / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    assert bench_pairs.revision(str(clean)) == name


def test_a_copy_without_git_is_named_by_its_digest(tmp_path):
    head = _tree(tmp_path / "clean")
    bare = shutil.copytree(tmp_path / "clean", tmp_path / "bare", ignore=shutil.ignore_patterns(".git"))
    digest = bench_pairs.src_digest(str(bare))
    assert len(digest) == 8 and bench_pairs.revision(str(tmp_path / "clean")) == f"{head}+src:{digest}"
    assert bench_pairs.revision(str(bare)) == f"src:{digest}"
    # the name does not depend on the directory's name
    assert bench_pairs.revision(str(shutil.copytree(bare, tmp_path / "other"))) == f"src:{digest}"
