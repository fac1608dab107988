"""The verdict fields of tools/bench_pairs.py's summary, on made-up runs."""

import importlib.util
import pathlib

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
