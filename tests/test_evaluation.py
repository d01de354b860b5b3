import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurious_lens import (
    Point,
    PredictionRecord,
    balanced_accuracy,
    discover_spurious,
    effective_robustness_fit,
    evaluation,
    fmt_pct,
    group_report,
    plain_accuracy,
    std_normal_cdf,
)
from spurious_lens.cli import _json_data, _serialize
from spurious_lens.errors import (ConfigError, DegenerateFitError, DomainError,
                                  InsufficientDataError, ParseError)
from spurious_lens.evaluation import (
    FitLine,
    Group,
    PredictionTable,
    SimilarityTable,
    Transform,
    confusing_labels,
    load_points,
    load_predictions,
    load_similarities,
    std_normal_inv_cdf,
)


def records(label, n_correct, n_total, group="unassigned", background="",
            prefix=""):
    out = []
    for i in range(n_total):
        correct = i < n_correct
        out.append(PredictionRecord(
            sample_id=f"{prefix}{label}-{background}-{group}-{i}",
            true_label=label,
            group=group,
            background=background,
            ranked_predictions=(label,) if correct else ("something-else",),
        ))
    return out


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


VALID_PREDICTIONS = """\
sample_id,true_label,group,background,pred_1,pred_2
a1,bear,easy,snow,bear,wolf
a2,bear,hard,grass,wolf,bear
a3,fox,easy,snow,fox
"""


class TestFmtPct:
    def test_two_decimals(self):
        assert fmt_pct(82 / 84) == "97.62"
        assert fmt_pct(0.5) == "50.00"
        assert fmt_pct(1.0) == "100.00"
        assert fmt_pct(0.267099) == "26.71"


class TestLoadPredictions:
    def test_valid_file(self, tmp_path):
        table = load_predictions(write_csv(tmp_path / "p.csv", VALID_PREDICTIONS))
        assert len(table) == 3
        assert list(Group)[table.group[0]] is Group.EASY
        assert table.labels[table.label[1]] == "bear" and table.rank[1] == 2
        # short rows pad out; trailing blanks shrink the ranking
        assert table.labels[table.label[2]] == "fox" and table.rank[2] == 1

    def test_codes_are_int32_and_ranks_int64(self, tmp_path):
        loaded = load_predictions(write_csv(tmp_path / "p.csv", VALID_PREDICTIONS))
        converted = PredictionTable.from_records([
            PredictionRecord("a1", "bear", "easy", "snow", ("bear", "wolf")),
            PredictionRecord("a2", "bear", "hard", "grass", ("wolf", "bear")),
            PredictionRecord("a3", "fox", "easy", "snow", ("fox",)),
        ])
        for table in (loaded, converted):
            assert [getattr(table, column).dtype for column in (
                "label", "group", "background", "rank")] == [
                np.int32, np.int8, np.int32, np.int64]
            assert table.label.tolist() == [0, 0, 1] and table.rank.tolist() == [1, 2, 1]

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", ""))
        assert str(err.value) == "prediction file is empty"
        assert err.value.lines == ()

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_cr_line_endings(self, tmp_path, ending):
        lf = load_predictions(write_csv(tmp_path / "lf.csv", VALID_PREDICTIONS))
        other = load_predictions(write_csv(tmp_path / "other.csv",
                                           VALID_PREDICTIONS.replace("\n", ending)))
        assert (other.labels, other.backgrounds) == (lf.labels, lf.backgrounds)
        for column in ("label", "group", "background", "rank"):
            assert getattr(other, column).tolist() == getattr(lf, column).tolist()

    def test_quoted_newline_counts_as_one_row(self, tmp_path):
        text = VALID_PREDICTIONS.replace("hard,grass", 'hard,"tall\ngrass"') \
            + ",fox,easy,snow,fox\n"
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", text))
        assert err.value.lines == (5,)

    def test_bad_fixed_header(self, tmp_path):
        text = "id,true_label,group,background,pred_1\nx,a,easy,snow,a\n"
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", text))
        assert err.value.lines == (1,)

    @pytest.mark.parametrize("cols", ["", ",pred_2", ",pred_1,pred_3", ",pred_2,pred_1"])
    def test_bad_prediction_columns(self, tmp_path, cols):
        text = f"sample_id,true_label,group,background{cols}\n"
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", text))
        assert err.value.lines == (1,)

    def test_row_with_extra_cells(self, tmp_path):
        text = VALID_PREDICTIONS + "a4,fox,easy,snow,fox,wolf,bear\n"
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", text))
        assert err.value.lines == (5,)

    def test_empty_sample_id(self, tmp_path):
        text = VALID_PREDICTIONS + ",fox,easy,snow,fox\n"
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", text))
        assert str(err.value) == "line 5: empty sample_id"
        assert err.value.lines == (5,)

    def test_empty_true_label(self, tmp_path):
        text = VALID_PREDICTIONS + "a4,,easy,snow,fox\n"
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", text))
        assert err.value.lines == (5,)

    def test_duplicate_sample_id_reports_both_lines(self, tmp_path):
        text = VALID_PREDICTIONS + "a2,fox,easy,snow,fox\n"
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", text))
        assert err.value.lines == (3, 5)
        assert str(err.value) == "duplicate sample_id 'a2' at lines 3 and 5"

    def test_bad_group(self, tmp_path):
        text = VALID_PREDICTIONS + "a4,fox,medium,snow,fox\n"
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", text))
        assert err.value.lines == (5,)

    def test_empty_first_prediction(self, tmp_path):
        text = VALID_PREDICTIONS + "a4,fox,easy,snow,,wolf\n"
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", text))
        assert err.value.lines == (5,)

    def test_gap_in_ranking(self, tmp_path):
        text = ("sample_id,true_label,group,background,pred_1,pred_2,pred_3\n"
                "a1,bear,easy,snow,bear,,wolf\n")
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", text))
        assert err.value.lines == (2,)

    def test_duplicate_ranked_labels(self, tmp_path):
        text = VALID_PREDICTIONS + "a4,fox,easy,snow,fox,fox\n"
        with pytest.raises(ParseError) as err:
            load_predictions(write_csv(tmp_path / "p.csv", text))
        assert err.value.lines == (5,)

    @pytest.mark.parametrize("block_chars", [1, None], ids=["row_blocks", "default_blocks"])
    def test_predicted_only_label_is_not_a_table_label(self, tmp_path, monkeypatch,
                                                       block_chars):
        # "ape" and "wolf" are ranked but never true labels; "ape" sorts
        # first, so letting it in would shift every label code
        text = ("sample_id,true_label,group,background,pred_1,pred_2\n"
                "a1,bear,easy,snow,ape,bear\n"
                "a2,fox,hard,grass,fox,ape\n"
                "a3,bear,unassigned,snow,wolf\n")
        if block_chars:
            monkeypatch.setattr(evaluation, "_BLOCK_CHARS", block_chars)
        loaded = load_predictions(write_csv(tmp_path / "p.csv", text))
        converted = PredictionTable.from_records([
            PredictionRecord("a1", "bear", "easy", "snow", ("ape", "bear")),
            PredictionRecord("a2", "fox", "hard", "grass", ("fox", "ape")),
            PredictionRecord("a3", "bear", "unassigned", "snow", ("wolf",)),
        ])
        assert loaded.label.tolist() == [0, 1, 0]
        for table in (loaded, converted):
            assert (table.labels, table.backgrounds) == (("bear", "fox"), ("grass", "snow"))
            assert table.rank.tolist()[:2] == [2, 1] and table.rank[2] > 2
        for column in ("label", "group", "background", "rank"):
            assert getattr(loaded, column).tolist() == getattr(converted, column).tolist()

    def test_record_validation(self):
        with pytest.raises(ConfigError):
            PredictionRecord("s", "bear", "easy", "snow", ())
        with pytest.raises(ConfigError):
            PredictionRecord("s", "bear", "easy", "snow", ("a", "a"))
        with pytest.raises(ValueError):
            PredictionRecord("s", "bear", "medium", "snow", ("a",))


class TestAccuracies:
    @pytest.mark.parametrize("fn", [plain_accuracy, balanced_accuracy])
    def test_k_must_be_positive(self, fn):
        recs = records("bear", 1, 2)
        with pytest.raises(ConfigError):
            fn(recs, 0)

    def test_topk_monotone(self):
        recs = [PredictionRecord("s1", "bear", "easy", "", ("wolf", "bear")),
                PredictionRecord("s2", "bear", "easy", "", ("bear",))]
        assert plain_accuracy(recs, 1) == 0.5
        assert plain_accuracy(recs, 2) == 1.0

    def test_balanced_vs_plain_fixture(self):
        recs = records("a", 10, 10) + records("b", 1, 2)
        assert plain_accuracy(recs, 1) == 11 / 12
        assert balanced_accuracy(recs, 1) == 0.75

    def test_balanced_equals_plain_for_equal_counts(self):
        recs = records("a", 3, 5) + records("b", 4, 5)
        assert balanced_accuracy(recs, 1) == pytest.approx(plain_accuracy(recs, 1))

    def test_single_class_collapses(self):
        recs = records("a", 7, 9)
        assert balanced_accuracy(recs, 1) == plain_accuracy(recs, 1) == 7 / 9

    def test_balanced_invariant_under_class_duplication(self):
        base = records("a", 3, 5) + records("b", 5, 5)
        doubled = base + records("a", 3, 5, prefix="dup-")
        assert balanced_accuracy(doubled, 1) == pytest.approx(
            balanced_accuracy(base, 1))
        assert plain_accuracy(doubled, 1) != pytest.approx(plain_accuracy(base, 1))

    def test_empty_records_rejected(self):
        with pytest.raises(InsufficientDataError):
            plain_accuracy([], 1)
        with pytest.raises(InsufficientDataError):
            balanced_accuracy([], 1)


class TestGroupReport:
    def test_single_class_fixture_strings(self):
        recs = records("bear", 82, 84, group="easy") + \
            records("bear", 78, 110, group="hard")
        report = group_report(recs, k=1)
        assert fmt_pct(report.balanced_easy) == "97.62"
        assert fmt_pct(report.balanced_hard) == "70.91"
        assert fmt_pct(report.balanced_drop) == "26.71"
        assert report.plain_easy == 82 / 84
        (metrics,) = report.per_class
        assert metrics.n_easy == 84 and metrics.n_hard == 110
        assert metrics.drop == pytest.approx(82 / 84 - 78 / 110)

    def test_large_single_class_subtraction(self):
        recs = records("all", 6713, 10_000, group="easy") + \
            records("all", 3695, 10_000, group="hard")
        report = group_report(recs, k=1)
        assert fmt_pct(report.balanced_easy) == "67.13"
        assert fmt_pct(report.balanced_hard) == "36.95"
        assert fmt_pct(report.balanced_drop) == "30.18"

    def test_identical_groups_have_zero_drop(self):
        recs = records("a", 4, 6, group="easy") + records("a", 4, 6, group="hard")
        report = group_report(recs, k=1)
        assert report.balanced_drop == 0.0

    def test_one_sided_class_excluded_from_drop(self):
        recs = records("a", 5, 5, group="easy") + \
            records("a", 1, 5, group="hard") + \
            records("b", 0, 4, group="easy")
        report = group_report(recs, k=1)
        by_label = {m.label: m for m in report.per_class}
        assert by_label["b"].hard_accuracy is None
        assert by_label["b"].drop is None
        assert report.balanced_drop == pytest.approx(1.0 - 0.2)

    def test_drop_matches_balanced_difference_on_full_coverage(self):
        recs = (records("a", 5, 6, group="easy") + records("a", 2, 7, group="hard")
                + records("b", 3, 4, group="easy") + records("b", 1, 3, group="hard"))
        report = group_report(recs, k=1)
        assert report.balanced_drop == pytest.approx(
            report.balanced_easy - report.balanced_hard)

    def test_unassigned_record_rejected(self):
        recs = records("a", 1, 2, group="easy") + records("a", 1, 2, group="hard") \
            + records("a", 1, 1, group="unassigned", prefix="u-")
        with pytest.raises(ConfigError):
            group_report(recs, k=1)

    def test_missing_group_rejected(self):
        with pytest.raises(InsufficientDataError):
            group_report(records("a", 1, 2, group="easy"), k=1)

    def test_disjoint_classes_rejected(self):
        recs = records("a", 1, 2, group="easy") + records("b", 1, 2, group="hard")
        with pytest.raises(InsufficientDataError):
            group_report(recs, k=1)

    def test_json_dict_shape(self):
        recs = records("a", 1, 2, group="easy") + records("a", 1, 2, group="hard")
        d = _json_data(group_report(recs, k=1))
        assert set(d) == {"k", "per_class", "balanced_easy", "balanced_hard",
                          "balanced_drop", "plain_easy", "plain_hard"}
        assert d["per_class"][0]["label"] == "a"


def background_records(spec):
    """spec: {label: {background: (n_correct, n_total)}}"""
    out = []
    for label, backgrounds in spec.items():
        for name, (good, total) in backgrounds.items():
            out.extend(records(label, good, total, background=name))
    return out


class TestDiscoverSpurious:
    def test_three_background_fixture(self):
        recs = background_records({"bear": {
            "snow": (95, 100), "grass": (56, 80), "water": (int(0.85 * 60), 60),
        }})
        split = discover_spurious(recs, threshold_pp=5.0, min_count=50)
        (flagged,) = split.flagged
        assert flagged.label == "bear"
        assert flagged.easy_background == "snow"
        assert flagged.hard_background == "grass"
        assert flagged.gap_pp == pytest.approx(25.0)
        assert [b.name for b in flagged.backgrounds] == ["grass", "snow", "water"]
        assert split.unflagged == () and split.skipped == ()

    def test_equal_accuracies_not_flagged(self):
        recs = background_records({"bear": {"snow": (8, 10), "grass": (16, 20)}})
        split = discover_spurious(recs, threshold_pp=5.0, min_count=10)
        assert split.flagged == ()
        assert split.unflagged == ("bear",)

    def test_exact_threshold_not_flagged(self):
        recs = background_records({"bear": {"snow": (80, 100), "grass": (75, 100)}})
        split = discover_spurious(recs, threshold_pp=5.0, min_count=20)
        assert split.flagged == ()
        # one more hit crosses strictly
        recs = background_records({"bear": {"snow": (81, 100), "grass": (75, 100)}})
        split = discover_spurious(recs, threshold_pp=5.0, min_count=20)
        assert len(split.flagged) == 1

    def test_min_count_filters_backgrounds(self):
        recs = background_records({"bear": {
            "snow": (100, 100), "grass": (0, 100), "glacier": (0, 19),
        }})
        split = discover_spurious(recs, threshold_pp=5.0, min_count=20)
        (flagged,) = split.flagged
        assert {b.name for b in flagged.backgrounds} == {"snow", "grass"}

    def test_too_few_backgrounds_skipped_with_notice(self):
        recs = background_records({"bear": {"snow": (10, 19), "grass": (2, 19)}})
        split = discover_spurious(recs, threshold_pp=5.0, min_count=20)
        ((label, notice),) = split.skipped
        assert label == "bear"
        assert "2" in notice and "20" in notice

    def test_ties_break_lexicographically(self):
        recs = background_records({"bear": {
            "zeta": (9, 10), "alpha": (9, 10), "mid": (0, 10),
        }})
        split = discover_spurious(recs, threshold_pp=5.0, min_count=10)
        (flagged,) = split.flagged
        assert flagged.easy_background == "alpha"
        recs = background_records({"bear": {
            "best": (9, 10), "zeta": (0, 10), "alpha": (0, 10),
        }})
        split = discover_spurious(recs, threshold_pp=5.0, min_count=10)
        (flagged,) = split.flagged
        assert flagged.hard_background == "alpha"

    @pytest.mark.parametrize("kwargs", [
        dict(threshold_pp=0.0), dict(min_count=0),
        dict(threshold_pp=float("nan")), dict(threshold_pp=float("inf")),
    ])
    def test_bad_parameters(self, kwargs):
        base = dict(threshold_pp=5.0, min_count=20)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            discover_spurious([], **base)

    def test_structural_invariants_on_random_fixtures(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            labels = [f"c{i}" for i in range(rng.integers(1, 4))]
            spec = {}
            for label in labels:
                n_bg = int(rng.integers(1, 5))
                spec[label] = {
                    f"b{j}": (int(rng.integers(0, 13)), 12) for j in range(n_bg)
                }
            recs = background_records(spec)
            threshold = float(rng.uniform(1.0, 30.0))
            split = discover_spurious(recs, threshold_pp=threshold, min_count=10)
            names = ([c.label for c in split.flagged] + list(split.unflagged)
                     + [label for label, _ in split.skipped])
            assert sorted(names) == sorted(spec)
            for c in split.flagged:
                accs = [b.accuracy for b in c.backgrounds]
                easy = next(b for b in c.backgrounds if b.name == c.easy_background)
                hard = next(b for b in c.backgrounds if b.name == c.hard_background)
                assert easy.accuracy == max(accs)
                assert hard.accuracy == min(accs)
                assert c.gap_pp > threshold
                assert c.gap_pp == pytest.approx(
                    100 * (easy.accuracy - hard.accuracy))

    def test_json_dict_shape(self):
        recs = background_records({"bear": {"snow": (10, 10), "grass": (0, 10)}})
        d = _json_data(discover_spurious(recs, threshold_pp=5.0, min_count=10))
        assert set(d) == {"threshold_pp", "min_count", "k",
                          "flagged", "unflagged", "skipped"}
        assert d["flagged"][0]["easy_background"] == "snow"


def naive_report(recs, k):
    """Reference group_report: one scan of the records per class and group."""
    def hits(rs):
        return sum(r.true_label in r.ranked_predictions[:k] for r in rs)
    groups = {g: [r for r in recs if r.group is g] for g in (Group.EASY, Group.HARD)}
    labels = sorted({r.true_label for r in recs})
    mine = {(g, label): [r for r in rs if r.true_label == label]
            for g, rs in groups.items() for label in labels}
    acc = {g: {label: hits(mine[g, label]) / len(mine[g, label])
               for label in labels if mine[g, label]} for g in groups}
    easy, hard = acc[Group.EASY], acc[Group.HARD]
    per_class = [{"label": label, "easy_accuracy": easy.get(label),
                  "hard_accuracy": hard.get(label),
                  "drop": easy[label] - hard[label] if label in easy and label in hard
                  else None,
                  "n_easy": len(mine[Group.EASY, label]),
                  "n_hard": len(mine[Group.HARD, label])} for label in labels]
    drops = [c["drop"] for c in per_class if c["drop"] is not None]
    return {"k": k, "per_class": per_class,
            "balanced_easy": sum(easy.values()) / len(easy),
            "balanced_hard": sum(hard.values()) / len(hard),
            "balanced_drop": sum(drops) / len(drops),
            "plain_easy": hits(groups[Group.EASY]) / len(groups[Group.EASY]),
            "plain_hard": hits(groups[Group.HARD]) / len(groups[Group.HARD])}


def naive_discover(recs, threshold_pp, min_count, k):
    """Reference discover_spurious: one scan per class and background."""
    out = {"threshold_pp": threshold_pp, "min_count": min_count, "k": k,
           "flagged": [], "unflagged": [], "skipped": []}
    for label in sorted({r.true_label for r in recs}):
        cells = []
        for name in sorted({r.background for r in recs if r.true_label == label}):
            rs = [r for r in recs if r.true_label == label and r.background == name]
            if len(rs) >= min_count:
                cells.append((name, sum(label in r.ranked_predictions[:k] for r in rs),
                              len(rs)))
        if len(cells) < 2:
            out["skipped"].append({"label": label, "notice":
                                   f"fewer than 2 backgrounds with >= {min_count} records"})
            continue
        easy = min(cells, key=lambda c: (-c[1] / c[2], c[0]))
        hard = min(cells, key=lambda c: (c[1] / c[2], c[0]))
        gap = 100.0 * (easy[1] * hard[2] - hard[1] * easy[2]) / (easy[2] * hard[2])
        if gap > threshold_pp:
            out["flagged"].append({
                "label": label, "easy_background": easy[0], "hard_background": hard[0],
                "backgrounds": [{"name": n, "accuracy": h / c, "count": c}
                                for n, h, c in cells],
                "gap_pp": gap})
        else:
            out["unflagged"].append(label)
    return out


RANDOM_LOG_RANKS = 4


def random_log(seed, rows=1200, classes=30):
    """Records with short rankings, absent true labels, a class seen only
    easy (c00) and one only hard (c01), and per-(class, background) hit
    rates of 0, 1/2 or 1, so accuracies tie across backgrounds.  Enough
    classes that a pairwise-summed mean would differ from the sorted sum."""
    rng = np.random.default_rng(seed)
    names = [f"c{i:02d}" for i in range(classes)]
    hit_rate = rng.choice([0.0, 0.5, 1.0], size=(classes, 3))
    out = []
    for i in range(rows):
        c, b = int(rng.integers(classes)), int(rng.integers(3))
        group = "easy" if c == 0 else "hard" if c == 1 else ("easy", "hard")[b % 2]
        others = [n for n in names + ["x", "y"] if n != names[c]]
        width = int(rng.integers(1, RANDOM_LOG_RANKS + 1))
        ranked = [str(n) for n in rng.permutation(others)[:width]]
        if rng.random() < hit_rate[c, b]:
            ranked[int(rng.integers(width))] = names[c]
        out.append(PredictionRecord(f"s{i}", names[c], group, f"b{b}", tuple(ranked)))
    return out


def log_csv(path, recs):
    lines = ["sample_id,true_label,group,background,"
             + ",".join(f"pred_{i}" for i in range(1, RANDOM_LOG_RANKS + 1))]
    for r in recs:
        blanks = [""] * (RANDOM_LOG_RANKS - len(r.ranked_predictions))
        lines.append(",".join([r.sample_id, r.true_label, r.group.value,
                               r.background, *r.ranked_predictions, *blanks]))
    return write_csv(path, "\n".join(lines) + "\n")


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


# every k up to past the widest ranking, and one no int64 rank reaches
ORACLE_KS = [*range(1, RANDOM_LOG_RANKS + 3), 2 ** 64]


class TestColumnarMetricsOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_group_report_matches_per_record_scan(self, seed):
        recs = random_log(seed)
        table = PredictionTable.from_records(recs)
        for k in ORACLE_KS:
            assert canonical(_json_data(group_report(table, k))) == \
                canonical(naive_report(recs, k)), k

    @pytest.mark.parametrize("seed", range(6))
    def test_discover_matches_per_record_scan(self, seed):
        recs = random_log(seed)
        table = PredictionTable.from_records(recs)
        rng = np.random.default_rng(100 + seed)
        for min_count in (1, 5, 20):
            threshold = float(rng.choice([25.0, 50.0, rng.uniform(1.0, 60.0)]))
            assert canonical(_json_data(
                discover_spurious(table, threshold, min_count))) == canonical(
                naive_discover(recs, threshold, min_count, 1)), min_count

    @pytest.mark.parametrize("seed", range(3))
    def test_discover_with_one_background_per_row(self, seed):
        # as many cells as rows: every cell holds one record
        recs = [PredictionRecord(r.sample_id, r.true_label, r.group, f"r{i}",
                                 r.ranked_predictions)
                for i, r in enumerate(random_log(seed))]
        table = PredictionTable.from_records(recs)
        assert len(table.backgrounds) == len(recs)
        for min_count in (1, 2):
            report = _json_data(discover_spurious(table, 50.0, min_count))
            assert canonical(report) == canonical(
                naive_discover(recs, 50.0, min_count, 1)), min_count
            assert bool(report["flagged"]) == (min_count == 1)

    def test_discover_keys_past_int32(self):
        # 50 000 labels x 50 000 backgrounds in int32 codes: the last cells'
        # (class, background) keys pass 2^31, where an int32 key would wrap
        n, min_count, threshold = 50_000, 5, 10.0
        labels = tuple(f"c{i:05d}" for i in range(n))
        backgrounds = tuple(f"b{i:05d}" for i in range(n))
        # a row of each label on the background of its code, and 20 rows of
        # each of the last 4 labels on each of the last 5 backgrounds
        label = np.concatenate([np.arange(n), np.repeat(np.arange(n - 4, n), 100)])
        background = np.concatenate([np.arange(n), np.tile(np.repeat(np.arange(n - 5, n), 20), 4)])
        assert int(label.max()) * n + int(background.max()) >= 2 ** 31
        rng = np.random.default_rng(3)
        hit = rng.random(len(label)) < 0.1 + 0.4 * ((label + background) % 3)
        table = PredictionTable(
            labels=labels, label=label.astype(np.int32), group=np.zeros(len(label), np.int8),
            backgrounds=backgrounds, background=background.astype(np.int32),
            rank=np.where(hit, 1, evaluation._NO_RANK))
        by_label: dict[str, list] = {}
        for i, (c, b) in enumerate(zip(label.tolist(), background.tolist())):
            by_label.setdefault(labels[c], []).append(PredictionRecord(
                f"s{i}", labels[c], "easy", backgrounds[b], (labels[c],) if hit[i] else ("x",)))
        # a class's outcome depends on its own records only
        expected = naive_discover([], threshold, min_count, 1)
        for name in labels:
            for key, entries in naive_discover(by_label[name], threshold, min_count, 1).items():
                if isinstance(entries, list):
                    expected[key] += entries
        report = _json_data(discover_spurious(table, threshold, min_count))
        assert len(report["flagged"]) == 4 and len(report["skipped"]) == n - 4
        same = canonical(report) == canonical(expected)  # no diff of 50 000 notices
        assert same

    def test_random_logs_have_ties_and_one_sided_classes(self):
        recs = random_log(0)
        report = naive_report(recs, 1)
        one_sided = [c["label"] for c in report["per_class"] if c["drop"] is None]
        assert one_sided == ["c00", "c01"]
        # at k = K every listed true label hits: hit rates 0 and 1 are exact
        split = naive_discover(recs, 1.0, 1, RANDOM_LOG_RANKS)
        accuracies = [[b["accuracy"] for b in c["backgrounds"]] for c in split["flagged"]]
        assert any(a.count(max(a)) > 1 or a.count(min(a)) > 1 for a in accuracies)

    def test_csv_and_records_give_identical_reports(self, tmp_path):
        recs = random_log(7)
        loaded = load_predictions(log_csv(tmp_path / "p.csv", recs))
        assert len(loaded) == len(recs)
        converted = PredictionTable.from_records(recs)
        for k in ORACLE_KS:
            assert canonical(_json_data(group_report(loaded, k))) == \
                canonical(_json_data(group_report(converted, k)))
        assert canonical(_json_data(discover_spurious(loaded, 10.0, 5))) == \
            canonical(_json_data(discover_spurious(converted, 10.0, 5)))


VALID_SIMILARITIES = """\
sample_id,cat,dog,fish
s1,0.9,0.5,0.1
s2,0.8,0.6,0.2
s3,0.7,0.7,0.0
"""


class TestSimilarities:
    def test_valid_file(self, tmp_path):
        table = load_similarities(write_csv(tmp_path / "s.csv", VALID_SIMILARITIES))
        assert table.candidates == ("cat", "dog", "fish")
        assert table.n_samples == 3
        assert table.means.tolist() == np.array(
            [[0.9, 0.5, 0.1], [0.8, 0.6, 0.2], [0.7, 0.7, 0.0]]).mean(axis=0).tolist()

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_similarities(write_csv(tmp_path / "s.csv", ""))
        assert str(err.value) == "similarity file is empty"
        assert err.value.lines == ()

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_similarities(write_csv(tmp_path / "s.csv", "id,cat\nx,1\n"))
        assert err.value.lines == (1,)

    def test_duplicate_candidates(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_similarities(write_csv(tmp_path / "s.csv",
                                        "sample_id,cat,cat\nx,1,2\n"))
        assert err.value.lines == (1,)

    def test_ragged_row(self, tmp_path):
        text = VALID_SIMILARITIES + "s4,0.1\n"
        with pytest.raises(ParseError) as err:
            load_similarities(write_csv(tmp_path / "s.csv", text))
        assert str(err.value) == "line 5: expected 4 cells, got 2"
        assert err.value.lines == (5,)

    def test_empty_sample_id(self, tmp_path):
        text = VALID_SIMILARITIES + ",0.1,0.2,0.3\n"
        with pytest.raises(ParseError) as err:
            load_similarities(write_csv(tmp_path / "s.csv", text))
        assert str(err.value) == "line 5: empty sample_id"
        assert err.value.lines == (5,)

    def test_duplicate_sample(self, tmp_path):
        text = VALID_SIMILARITIES + "s2,0.1,0.2,0.3\n"
        with pytest.raises(ParseError) as err:
            load_similarities(write_csv(tmp_path / "s.csv", text))
        assert err.value.lines == (3, 5)
        assert str(err.value) == "duplicate sample_id 's2' at lines 3 and 5"

    def test_non_numeric_score(self, tmp_path):
        text = VALID_SIMILARITIES + "s4,high,0.2,0.3\n"
        with pytest.raises(ParseError) as err:
            load_similarities(write_csv(tmp_path / "s.csv", text))
        assert err.value.lines == (5,)

    def test_non_finite_score(self, tmp_path):
        text = VALID_SIMILARITIES + "s4,nan,0.2,0.3\n"
        with pytest.raises(ParseError) as err:
            load_similarities(write_csv(tmp_path / "s.csv", text))
        assert err.value.lines == (5,)

    def test_no_data_rows(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_similarities(write_csv(tmp_path / "s.csv", "sample_id,cat\n"))
        assert str(err.value) == "similarity file has no data rows"
        assert err.value.lines == ()

    def test_table_shape_validation(self):
        with pytest.raises(ConfigError):
            SimilarityTable(candidates=("a",), n_samples=1, means=np.zeros(2))


class TestConfusingLabels:
    SCORES = np.array([[0.9, 0.5, 0.1], [0.8, 0.6, 0.2], [0.7, 0.7, 0.0]])
    TABLE = SimilarityTable(
        candidates=("cat", "dog", "fish"), n_samples=3, means=SCORES.mean(axis=0),
    )

    def test_top_two_by_mean(self):
        assert confusing_labels(self.TABLE, k=2) == ["cat", "dog"]

    def test_full_k_is_permutation(self):
        assert sorted(confusing_labels(self.TABLE, k=3)) == ["cat", "dog", "fish"]

    def test_order_invariant_to_positive_scaling(self):
        scaled = SimilarityTable(candidates=self.TABLE.candidates,
                                 n_samples=self.TABLE.n_samples,
                                 means=(self.SCORES * 7.0).mean(axis=0))
        assert confusing_labels(scaled, k=3) == confusing_labels(self.TABLE, k=3)

    def test_ties_break_lexicographically(self):
        table = SimilarityTable(
            candidates=("zebra", "ant"), n_samples=1,
            means=np.array([[0.5, 0.5]]).mean(axis=0),
        )
        assert confusing_labels(table, k=2) == ["ant", "zebra"]

    def test_an_infinite_mean_warns_as_numpy_mean_did(self):
        # the loader's means are infinite only where finite scores' sum overflowed
        table = SimilarityTable(candidates=("cat", "dog"), n_samples=2,
                                means=[np.inf, 0.5])
        with pytest.warns(RuntimeWarning, match="overflow encountered in reduce"):
            assert confusing_labels(table, k=1) == ["cat"]
        with pytest.raises(ConfigError):
            confusing_labels(table, k=0)  # an invalid k comes first

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            confusing_labels(self.TABLE, k=4)
        with pytest.raises(ConfigError):
            confusing_labels(self.TABLE, k=0)


class TestLoadPoints:
    def test_bare_header(self, tmp_path):
        pts = load_points(write_csv(tmp_path / "p.csv",
                                    "easy,hard\n0.6,0.4\n0.8,0.6\n"))
        assert pts == [Point(None, 0.6, 0.4), Point(None, 0.8, 0.6)]

    def test_named_header(self, tmp_path):
        pts = load_points(write_csv(tmp_path / "p.csv",
                                    "name,easy,hard\nm1,0.6,0.4\n"))
        assert pts == [Point("m1", 0.6, 0.4)]

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_points(write_csv(tmp_path / "p.csv", ""))
        assert str(err.value) == "points file is empty"
        assert err.value.lines == ()

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_points(write_csv(tmp_path / "p.csv", "x,y\n1,2\n"))
        assert err.value.lines == (1,)

    def test_ragged_row(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_points(write_csv(tmp_path / "p.csv", "easy,hard\n0.5\n"))
        assert str(err.value) == "line 2: expected 2 cells, got 1"
        assert err.value.lines == (2,)

    def test_non_numeric(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_points(write_csv(tmp_path / "p.csv", "easy,hard\nhigh,0.5\n"))
        assert err.value.lines == (2,)

    def test_no_rows(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_points(write_csv(tmp_path / "p.csv", "easy,hard\n"))
        assert str(err.value) == "points file has no data rows"
        assert err.value.lines == ()


def quote_first_cell(text):
    """The text with its first cell quoted: the same rows, which the
    loaders then read with the csv module instead of splitting at commas."""
    end = re.match(r"[^,\r\n]*", text).end()
    return f'"{text[:end]}"{text[end:]}' if text else text


class QuotedFirstCell:
    """Runs a test class again with the first cell of every file it writes
    quoted, so each case goes through the other CSV reader."""

    @pytest.fixture(autouse=True)
    def _quote_first_cell(self, monkeypatch):
        write = write_csv
        monkeypatch.setitem(globals(), "write_csv",
                            lambda path, text: write(path, quote_first_cell(text)))


class TestLoadPredictionsQuoted(QuotedFirstCell, TestLoadPredictions):
    pass


class TestSimilaritiesQuoted(QuotedFirstCell, TestSimilarities):
    pass


class TestLoadPointsQuoted(QuotedFirstCell, TestLoadPoints):
    pass


class TestEffectiveRobustnessFit:
    def test_two_point_line(self):
        fit = effective_robustness_fit([Point(None, 0.6, 0.4), Point(None, 0.8, 0.6)])
        assert fit.slope == pytest.approx(1.0, abs=1e-10)
        assert fit.intercept == pytest.approx(-0.2, abs=1e-10)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-10)
        assert fit.transform is Transform.LINEAR

    def test_diagonal_points(self):
        pts = [Point(None, v, v) for v in (0.2, 0.5, 0.9)]
        fit = effective_robustness_fit(pts)
        assert fit.slope == pytest.approx(1.0, abs=1e-10)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)

    def test_on_line_point_leaves_fit_unchanged(self):
        pts = [Point(None, 0.6, 0.4), Point(None, 0.8, 0.6)]
        base = effective_robustness_fit(pts)
        extended = effective_robustness_fit(pts + [Point(None, 0.7, 0.5)])
        assert extended.slope == pytest.approx(base.slope, abs=1e-10)
        assert extended.intercept == pytest.approx(base.intercept, abs=1e-10)
        assert extended.residual_rms == pytest.approx(0.0, abs=1e-10)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(0.1, 0.9, size=12)
            y = rng.uniform(0.1, 0.9, size=12)
            pts = [Point(None, float(a), float(b)) for a, b in zip(x, y)]
            fit = effective_robustness_fit(pts)
            r = y - (fit.slope * x + fit.intercept)
            assert abs(r.sum()) <= 1e-10
            assert abs((r * x).sum()) <= 1e-10
            assert fit.residual_rms == pytest.approx(
                float(np.sqrt(np.mean(r ** 2))), abs=1e-12)

    def test_identical_x_degenerate(self):
        pts = [Point(None, 0.5, 0.4), Point(None, 0.5, 0.6)]
        with pytest.raises(DegenerateFitError):
            effective_robustness_fit(pts)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            effective_robustness_fit([Point(None, 0.5, 0.4)])

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.4])
    def test_probit_domain(self, bad):
        pts = [Point(None, bad, 0.5), Point(None, 0.7, 0.6)]
        with pytest.raises(DomainError):
            effective_robustness_fit(pts, transform="probit")

    def test_probit_recovers_probit_space_line(self):
        slope, intercept = 0.8, -0.3
        xs = [0.3, 0.5, 0.7, 0.9]
        pts = [Point(None, x, std_normal_cdf(slope * std_normal_inv_cdf(x) + intercept))
               for x in xs]
        fit = effective_robustness_fit(pts, transform=Transform.PROBIT)
        assert fit.transform is Transform.PROBIT
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-9)

    def test_rms_in_transformed_space(self):
        pts = [Point(None, 0.3, 0.31), Point(None, 0.5, 0.52),
               Point(None, 0.7, 0.69)]
        linear = effective_robustness_fit(pts, transform="linear")
        probit = effective_robustness_fit(pts, transform="probit")
        assert linear.residual_rms != pytest.approx(probit.residual_rms)

    def test_json_dict(self):
        fit = FitLine(slope=1.0, intercept=0.0, transform=Transform.PROBIT,
                      residual_rms=0.0)
        assert json.loads(_serialize("fit.json", fit)) == {
            "slope": 1.0, "intercept": 0.0,
            "transform": "probit", "residual_rms": 0.0,
        }

    def test_nearly_identical_x_degenerate(self):
        pts = [Point(None, 0.5, 0.4), Point(None, 0.5 + 1e-130, 0.6)]
        with pytest.raises(DegenerateFitError):
            effective_robustness_fit(pts)

    @settings(max_examples=40, deadline=None)
    @given(
        slope=st.floats(min_value=-3.0, max_value=3.0),
        intercept=st.floats(min_value=-1.0, max_value=1.0),
        xs=st.lists(st.integers(min_value=0, max_value=1000).map(lambda v: v / 1000),
                    min_size=2, max_size=8, unique=True),
    )
    def test_exact_line_recovered(self, slope, intercept, xs):
        pts = [Point(None, x, slope * x + intercept) for x in xs]
        fit = effective_robustness_fit(pts)
        assert fit.slope == pytest.approx(slope, abs=1e-7)
        assert fit.intercept == pytest.approx(intercept, abs=1e-7)
