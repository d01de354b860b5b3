import dataclasses
import json
import math
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spurious_lens import (DiscreteConfig, GenerativeConfig, SimilarityTable, __version__,
                           load_schema)
from spurious_lens import cli
from spurious_lens.cli import main

GAUSS_EXACT = {
    "sigma_inv": 1.0, "sigma_spu": 0.5, "mu_spu": 2.0, "p_spu": 0.95,
    "sigma_xi": 0.1, "n": 2000, "d_I": 16, "d_T": 16, "mode": "TheoremExact",
}
GAUSS_DEF1 = {
    "sigma_inv": 1.0, "sigma_spu": 0.5, "mu_spu": 1.0, "p_spu": 0.9,
    "sigma_xi": 0.01, "n": 2000, "d_I": 16, "d_T": 16, "mode": "Def1",
}
DISCRETE = {"num_classes": 2, "p_inv": 0.75, "p_spu": 0.9, "n_train": 400}
# A fuzz-found Def1 config whose alignment gap overflows in np.linalg.norm.
GAUSS_OVERFLOW = {**GAUSS_DEF1, "mu_spu": 1.157920892373162e+77, "n": 40, "d_I": 4, "d_T": 4}
# A Def1 config whose means are JSON integers: the latents must still be float.
GAUSS_INT_MEANS = {"mu_inv": 1, "mu_spu": 1, "n": 100, "d_I": 4, "d_T": 4}

PREDICTIONS = "sample_id,true_label,group,background,pred_1\n" + "".join(
    f"e{i},bear,easy,snow,{'bear' if i < 9 else 'wolf'}\n" for i in range(10)
) + "".join(
    f"h{i},bear,hard,grass,{'bear' if i < 4 else 'wolf'}\n" for i in range(10)
)

DISCOVER_PREDICTIONS = "sample_id,true_label,group,background,pred_1\n" + "".join(
    f"s{i},bear,unassigned,snow,{'bear' if i < 19 else 'wolf'}\n" for i in range(20)
) + "".join(
    f"g{i},bear,unassigned,grass,{'bear' if i < 8 else 'wolf'}\n" for i in range(20)
)

SIMILARITIES = ("sample_id,cat,dog,fish\n"
                "s1,0.9,0.5,0.1\ns2,0.8,0.6,0.2\ns3,0.7,0.7,0.0\n")

POINTS = "easy,hard\n0.6,0.4\n0.8,0.6\n0.7,0.52\n"


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_json(path: Path, obj) -> str:
    return write(path, json.dumps(obj))


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def manifest_of(out) -> dict:
    return read_json(Path(out).with_suffix(".manifest.json"))


def check_schema(payload: dict, name: str) -> None:
    jsonschema.validate(payload, load_schema(name))


class TestVerifyTheorem:
    def test_pass_exit_zero(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", GAUSS_EXACT)
        out = str(tmp_path / "report.json")
        rc = main(["verify-theorem", "--config", cfg, "--mc", "20000",
                   "--seed", "0", "--out", out])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""
        assert "pass" in captured.err
        payload = read_json(out)
        assert payload["passed"] is True
        assert payload["mc_stream"] == payload["train_stream"] == 2
        check_schema(payload, "verification_report")
        check_schema(manifest_of(out), "run_manifest")

    def test_unmet_tolerance_exits_one(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", GAUSS_EXACT)
        out = str(tmp_path / "report.json")
        rc = main(["verify-theorem", "--config", cfg, "--mc", "2000",
                   "--seed", "0", "--tol", "0.000001", "--out", out])
        assert rc == 1
        assert read_json(out)["passed"] is False

    def test_reports_byte_identical_across_runs(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", GAUSS_EXACT)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            main(["verify-theorem", "--config", cfg, "--mc", "2000",
                  "--seed", "0", "--tol", "0.000001", "--out", out])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "c.json", GAUSS_EXACT)
        outputs = []
        for threads, name in (("1", "a.json"), ("3", "b.json")):
            monkeypatch.setenv("SPURIOUS_LENS_THREADS", threads)
            out = str(tmp_path / name)
            main(["verify-theorem", "--config", cfg, "--mc", "20000",
                  "--seed", "0", "--out", out])
            outputs.append(Path(out).read_bytes())
        assert outputs[0] == outputs[1]

    def test_manifest_digest_tracks_inputs(self, tmp_path):
        cfg = write_json(tmp_path / "config.json", GAUSS_EXACT)
        a, b, c = (str(tmp_path / n) for n in ("a.json", "b.json", "c.json"))
        main(["verify-theorem", "--config", cfg, "--mc", "2000",
              "--tol", "0.5", "--out", a])
        main(["verify-theorem", "--config", cfg, "--mc", "2000",
              "--tol", "0.5", "--out", b])
        main(["verify-theorem", "--config", cfg, "--mc", "2000",
              "--tol", "0.5", "--seed", "1", "--out", c])
        assert manifest_of(a)["config_digest"] == manifest_of(b)["config_digest"]
        assert manifest_of(a)["config_digest"] != manifest_of(c)["config_digest"]
        m = manifest_of(a)
        assert m["subcommand"] == "verify-theorem"
        assert m["version"] == __version__
        assert m["outputs"] == [a]

    def test_timestamp_only_in_manifest(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", GAUSS_EXACT)
        out = str(tmp_path / "report.json")
        main(["verify-theorem", "--config", cfg, "--mc", "2000",
              "--tol", "0.5", "--out", out])
        assert "timestamp" not in Path(out).read_text(encoding="utf-8")
        assert "timestamp" in manifest_of(out)

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.json", "{not json")
        rc = main(["verify-theorem", "--config", cfg,
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path):
        rc = main(["verify-theorem", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_unknown_config_field_exits_two(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {**GAUSS_EXACT, "bogus": 1})
        rc = main(["verify-theorem", "--config", cfg,
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_too_few_mc_exits_two(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", GAUSS_EXACT)
        rc = main(["verify-theorem", "--config", cfg, "--mc", "100",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2


class TestSimulateGaussian:
    def test_report_and_manifest(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", GAUSS_DEF1)
        out = str(tmp_path / "sim.json")
        rc = main(["simulate-gaussian", "--config", cfg, "--seed", "0",
                   "--out", out])
        assert rc == 0
        assert capsys.readouterr().out == ""
        payload = read_json(out)
        assert payload["mc_stream"] == payload["train_stream"] == 2
        check_schema(payload, "subgroup_report")
        assert payload["n_train"] == GAUSS_DEF1["n"]
        assert payload["n_test"] == GAUSS_DEF1["n"]
        assert 0.0 <= payload["alignment"]["target_gap"]
        check_schema(manifest_of(out), "run_manifest")

    def test_deterministic(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", GAUSS_DEF1)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            main(["simulate-gaussian", "--config", cfg, "--out", out])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_failed_run_prints_no_result(self, tmp_path, capsys):
        # the alignment gap overflows: the run exits 3 before it reports
        # an accuracy that it would then discard
        cfg = write_json(tmp_path / "c.json", GAUSS_OVERFLOW)
        out = tmp_path / "sim.json"
        assert main(["simulate-gaussian", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "acc_overall" not in err
        assert not out.exists()


@pytest.mark.parametrize("argv", [["verify-theorem", "--mc", "1000"], ["simulate-gaussian"]],
                         ids=["verify-theorem", "simulate-gaussian"])
def test_integer_means_report_as_float_means(tmp_path, argv):
    reports = []
    for name, means in (("int", 1), ("float", 1.0)):
        config = {**GAUSS_INT_MEANS, "mu_inv": means, "mu_spu": means}
        cfg = write_json(tmp_path / f"{name}.json", config)
        out = tmp_path / f"{name}.out.json"
        assert main(argv + ["--config", cfg, "--out", str(out)]) in (0, 1)
        report = read_json(out)
        assert report.pop("config")["mu_spu"] == means
        reports.append(report)
    assert reports[0] == reports[1]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_theorem_exact_population_gap_shrinks(tmp_path):
    # TheoremExact latents sit at (y, a): the trained matrix converges to
    # their second moment, not to one built from mu_spu = 2
    config = {**read_json(CONFIGS / "theorem_exact.json"), "n": 20000, "d_I": 16, "d_T": 16}
    out = tmp_path / "sim.json"
    assert main(["simulate-gaussian", "--config", write_json(tmp_path / "c.json", config),
                 "--out", str(out)]) == 0
    alignment = read_json(out)["alignment"]
    assert np.allclose(alignment["population_target"], [[2.0, 0.9], [0.9, 1.25]])
    assert alignment["population_gap"] < 0.1


@pytest.mark.parametrize("threads", ["1", "3"])
class TestPinnedSubgroupOutcomes:
    """Subgroup counts of the p_spu = 1/2 test pass: (correct, size) of the
    aligned and the conflicting subgroup.  The sizes were recorded before the
    pass was streamed, the correct counts with Monte-Carlo stream 2 and, where
    a matrix is trained, training stream 2.  Integer ratios, so BLAS rounding
    cannot move them."""

    @pytest.mark.parametrize("name,aligned,conflicting", [
        ("theorem_exact", (9759, 10021), (3746, 9979)),
        ("def1_lemma", (9122, 10021), (7172, 9979)),
    ])
    def test_verify_theorem(self, tmp_path, monkeypatch, threads, name,
                            aligned, conflicting):
        monkeypatch.setenv("SPURIOUS_LENS_THREADS", threads)
        out = str(tmp_path / "r.json")
        assert main(["verify-theorem", "--config", str(CONFIGS / f"{name}.json"),
                     "--mc", "20000", "--seed", "0", "--out", out]) == 0
        report = read_json(out)
        err = 1.0 - conflicting[0] / conflicting[1]
        acc = aligned[0] / aligned[1]
        assert report["mc_err_conflicting"] == err
        assert report["mc_acc_aligned"] == acc
        # the binomial standard errors pin the subgroup sizes
        assert report["mc_stderr"] == [math.sqrt(err * (1.0 - err) / conflicting[1]),
                                       math.sqrt(acc * (1.0 - acc) / aligned[1])]

    def test_simulate_gaussian(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("SPURIOUS_LENS_THREADS", threads)
        cfg = write_json(tmp_path / "c.json", {**GAUSS_DEF1, "n": 40000, "d_I": 8, "d_T": 8})
        out = str(tmp_path / "sim.json")
        assert main(["simulate-gaussian", "--config", cfg, "--seed", "1",
                     "--out", out]) == 0
        report = read_json(out)
        assert {key: report[key] for key in ("acc_overall", "acc_aligned",
                                             "acc_conflicting", "n_aligned",
                                             "n_conflicting", "n_test")} == {
            "acc_overall": 32608 / 40000, "acc_aligned": 18268 / 20015,
            "acc_conflicting": 14340 / 19985, "n_aligned": 20015,
            "n_conflicting": 19985, "n_test": 40000,
        }


class TestSimulateDiscrete:
    def test_csv_and_sidecar(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", DISCRETE)
        out = str(tmp_path / "table.csv")
        rc = main(["simulate-discrete", "--config", cfg, "--seeds", "2",
                   "--out", out])
        assert rc == 0
        lines = Path(out).read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "k,n,p_inv,p_spu,method,rand,rev,rest"
        assert len(lines) == 3
        sup, con = lines[1].split(","), lines[2].split(",")
        assert sup[:5] == ["2", "400", "0.75", "0.9", "supervised"]
        assert con[4] == "contrastive"
        assert "±" in sup[5] and "±" in sup[6]
        assert sup[7] == "n/a"
        sidecar = read_json(Path(out).with_suffix(".json"))
        check_schema(sidecar, "discrete_summary")
        assert sidecar["n_seeds"] == 2
        manifest = manifest_of(out)
        check_schema(manifest, "run_manifest")
        assert set(manifest["outputs"]) == {out, str(Path(out).with_suffix(".json"))}

    def test_single_seed_zero_std(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", DISCRETE)
        out = str(tmp_path / "table.csv")
        main(["simulate-discrete", "--config", cfg, "--seeds", "1", "--out", out])
        row = Path(out).read_text(encoding="utf-8").strip().splitlines()[1]
        assert "± 0.00" in row

    def test_bad_seed_count_exits_two(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", DISCRETE)
        rc = main(["simulate-discrete", "--config", cfg, "--seeds", "0",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2


class TestEval:
    def test_report(self, tmp_path, capsys):
        preds = write(tmp_path / "p.csv", PREDICTIONS)
        out = str(tmp_path / "eval.json")
        rc = main(["eval", "--predictions", preds, "--out", out])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "drop" in captured.err
        payload = read_json(out)
        check_schema(payload, "eval_report")
        assert payload["balanced_easy"] == 0.9
        assert payload["balanced_hard"] == 0.4
        assert payload["balanced_drop"] == pytest.approx(0.5)

    def test_parse_error_names_line(self, tmp_path, capsys):
        preds = write(tmp_path / "p.csv",
                      PREDICTIONS + ",bear,easy,snow,bear\n")
        rc = main(["eval", "--predictions", preds,
                   "--out", str(tmp_path / "e.json")])
        assert rc == 2
        assert "line 22" in capsys.readouterr().err

    def test_unassigned_group_exits_two(self, tmp_path):
        preds = write(tmp_path / "p.csv", DISCOVER_PREDICTIONS)
        rc = main(["eval", "--predictions", preds,
                   "--out", str(tmp_path / "e.json")])
        assert rc == 2


class TestDiscover:
    def test_report(self, tmp_path):
        preds = write(tmp_path / "p.csv", DISCOVER_PREDICTIONS)
        out = str(tmp_path / "disc.json")
        rc = main(["discover", "--predictions", preds, "--threshold", "5",
                   "--min-count", "20", "--out", out])
        assert rc == 0
        payload = read_json(out)
        check_schema(payload, "discovery_report")
        (flagged,) = payload["flagged"]
        assert flagged["easy_background"] == "snow"
        assert flagged["hard_background"] == "grass"
        assert flagged["gap_pp"] == pytest.approx(55.0)

    def test_min_count_can_skip_everything(self, tmp_path):
        preds = write(tmp_path / "p.csv", DISCOVER_PREDICTIONS)
        out = str(tmp_path / "disc.json")
        main(["discover", "--predictions", preds, "--min-count", "30",
              "--out", out])
        payload = read_json(out)
        assert payload["flagged"] == []
        assert payload["skipped"][0]["label"] == "bear"


class TestConfuse:
    def test_report(self, tmp_path):
        sims = write(tmp_path / "s.csv", SIMILARITIES)
        out = str(tmp_path / "conf.json")
        rc = main(["confuse", "--similarities", sims, "--k", "2", "--out", out])
        assert rc == 0
        payload = read_json(out)
        check_schema(payload, "confusing_labels")
        assert payload["labels"] == ["cat", "dog"]
        assert payload["n_samples"] == 3
        assert payload["mean_scores"]["cat"] == pytest.approx(0.8)

    def test_oversized_k_exits_two(self, tmp_path):
        sims = write(tmp_path / "s.csv", SIMILARITIES)
        rc = main(["confuse", "--similarities", sims, "--k", "9",
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2


class TestFit:
    def test_report_and_svg(self, tmp_path):
        points = write(tmp_path / "pts.csv", POINTS)
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--points", points, "--out", out])
        assert rc == 0
        payload = read_json(out)
        check_schema(payload, "fit_report")
        assert payload["transform"] == "linear"
        assert payload["n_points"] == 3
        svg_path = Path(out).with_suffix(".svg")
        root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")
        tags = {elem.tag.rsplit("}", 1)[-1] for elem in root.iter()}
        assert "circle" in tags and "line" in tags and "text" in tags
        body = svg_path.read_text(encoding="utf-8")
        assert "href" not in body and "<script" not in body
        manifest = manifest_of(out)
        assert str(svg_path) in manifest["outputs"]

    def test_custom_svg_path(self, tmp_path):
        points = write(tmp_path / "pts.csv", POINTS)
        svg = str(tmp_path / "plot.svg")
        out = str(tmp_path / "fit.json")
        main(["fit", "--points", points, "--svg", svg, "--out", out])
        assert Path(svg).exists()
        assert svg in manifest_of(out)["outputs"]

    def test_report_bytes_independent_of_out_dir(self, tmp_path):
        points = write(tmp_path / "pts.csv", POINTS)
        reports = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            out = tmp_path / name / "fit.json"
            assert main(["fit", "--points", points, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_probit_transform(self, tmp_path):
        points = write(tmp_path / "pts.csv", POINTS)
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--points", points, "--transform", "probit",
                   "--out", out])
        assert rc == 0
        assert read_json(out)["transform"] == "probit"

    def test_degenerate_points_exit_three(self, tmp_path, capsys):
        points = write(tmp_path / "pts.csv", "easy,hard\n0.5,0.4\n0.5,0.6\n")
        rc = main(["fit", "--points", points,
                   "--out", str(tmp_path / "f.json")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_probit_domain_exit_three(self, tmp_path):
        points = write(tmp_path / "pts.csv", "easy,hard\n1.0,0.4\n0.5,0.6\n")
        rc = main(["fit", "--points", points, "--transform", "probit",
                   "--out", str(tmp_path / "f.json")])
        assert rc == 3


CONFIG_OK = json.dumps(DISCRETE)
POINTS_OK = "easy,hard\n0.6,0.4\n0.8,0.6\n"


@pytest.mark.parametrize("files,argv,code,named", [
    ({"p.csv": "easy,hard\n0.6,0.4\n0.8,nan\n"},
     ["fit", "--points", "p.csv", "--out", "r.json"], 2, "line 3"),
    ({"p.csv": "easy,hard\nnan,0.4\n0.8,0.6\n"},
     ["fit", "--points", "p.csv", "--out", "r.json"], 2, "line 2"),
    ({"p.csv": "easy,hard\n0.6,0.4\n0.7,0.5\ninf,0.6\n"},
     ["fit", "--points", "p.csv", "--out", "r.json"], 2, "line 4"),
    ({"p.csv": "easy,hard\n0.6,0.4\n1.5,0.6\n"},
     ["fit", "--points", "p.csv", "--transform", "probit", "--out", "r.json"], 2, "line 3"),
    ({"p.csv": PREDICTIONS.encode("utf-8").replace(b"h0,bear", b"h0,b\xe4r")},
     ["eval", "--predictions", "p.csv", "--out", "r.json"], 2, "line 12"),
    ({"s.csv": b"sample_id,c\xe4t,dog\ns1,0.9,0.5\n"},
     ["confuse", "--similarities", "s.csv", "--k", "1", "--out", "r.json"], 2, "line 1"),
    ({"c.json": '{"n": 100.0}'},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"], 2, "field n "),
    ({"c.json": '{"p_spu": true}'},
     ["verify-theorem", "--config", "c.json", "--out", "r.json"], 2, "field p_spu"),
    ({"c.json": json.dumps({**DISCRETE, "seed": True})},
     ["simulate-discrete", "--config", "c.json", "--out", "t.csv"], 2, "field seed"),
    ({"c.json": b'{"n": 100}\n\xff'},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"], 2, "line 2"),
    ({"ds.json": CONFIG_OK},
     ["simulate-discrete", "--config", "ds.json", "--seeds", "1", "--out", "ds.csv"],
     2, "ds.json"),
    ({"p.csv": PREDICTIONS},
     ["eval", "--predictions", "p.csv", "--out", "p.csv"], 2, "p.csv"),
    ({"p.csv": POINTS_OK},
     ["fit", "--points", "p.csv", "--svg", "r.json", "--out", "r.json"], 2, "r.json"),
    ({"p.csv": POINTS_OK},
     ["fit", "--points", "p.csv", "--svg", "r.manifest.json", "--out", "r.json"],
     2, "r.manifest.json"),
    ({"p.csv": POINTS_OK},
     ["fit", "--points", "p.csv", "--svg", "absent/p.svg", "--out", "r.json"],
     2, "absent"),
    ({"p.csv": DISCOVER_PREDICTIONS},
     ["discover", "--predictions", "p.csv", "--threshold", "nan", "--out", "r.json"],
     2, "got nan"),
    ({"c.json": json.dumps(GAUSS_EXACT)},
     ["verify-theorem", "--config", "c.json", "--tol", "inf", "--out", "r.json"],
     2, "got inf"),
    ({"p.csv": PREDICTIONS.replace("e0,bear,", "e0," + "b" * 200_000 + ",", 1)},
     ["eval", "--predictions", "p.csv", "--out", "r.json"], 2, "line 2"),
    ({"c.json": '{"n": 100000000000000000000}'},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"],
     2, "n must lie in [2, 9223372036854775807]"),
    ({"c.json": json.dumps(GAUSS_DEF1)},
     ["simulate-gaussian", "--config", "c.json", "--seed", "-1", "--out", "r.json"],
     2, "seed must be >= 0"),
    ({"c.json": '{"n": 100, "n": 5}'},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"],
     2, "config field n is given more than once"),
    ({"c.json": '{"num_classes": 2, "p_inv": 0.75, "num_classes": 3}'},
     ["simulate-discrete", "--config", "c.json", "--out", "r.csv"],
     2, "config field num_classes is given more than once"),
    ({"c.json": '{"h": 2}'},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"],
     2, "unknown config fields: ['h']"),
    ({"c.json": json.dumps(GAUSS_OVERFLOW)},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"],
     3, "error: overflow encountered"),
    ({"c.json": json.dumps(GAUSS_OVERFLOW)},
     ["verify-theorem", "--config", "c.json", "--mc", "2000", "--out", "r.json"],
     2, "mu_spu"),
    ({"c.json": json.dumps(GAUSS_EXACT)},
     ["verify-theorem", "--config", "c.json", "--mc", "100000000000000000000",
      "--out", "r.json"],
     2, "mc_samples must be <= 9223372036854775807"),
], ids=["fit-nan-hard", "fit-nan-easy", "fit-inf-easy", "fit-out-of-range",
        "eval-non-utf8", "confuse-non-utf8", "config-float-for-int",
        "config-bool-for-float", "config-bool-seed", "config-non-utf8",
        "sidecar-overwrites-config", "out-overwrites-input", "svg-is-out",
        "svg-is-manifest", "svg-dir-missing", "discover-threshold-nan",
        "verify-tol-inf", "eval-oversized-cell", "gaussian-impossible-size",
        "gaussian-negative-seed", "gaussian-repeated-field", "discrete-repeated-field",
        "gaussian-removed-field", "gaussian-overflow", "verify-def1-off-regime",
        "verify-mc-impossible"])
def test_malformed_input_leaves_no_output(tmp_path, monkeypatch, capsys,
                                          files, argv, code, named):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        data = content.encode("utf-8") if isinstance(content, str) else content
        (tmp_path / name).write_bytes(data)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(argv) == code
    assert named in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_non_finite_result_exits_three_without_output(tmp_path, monkeypatch, capsys):
    sims = write(tmp_path / "s.csv", SIMILARITIES)
    monkeypatch.setattr(cli, "load_similarities", lambda path: SimilarityTable(
        candidates=("cat", "dog"), sample_ids=("s1",), scores=[[float("nan"), 0.5]]))
    rc = main(["confuse", "--similarities", sims, "--k", "1",
               "--out", str(tmp_path / "c.json")])
    assert rc == 3
    assert "strict JSON" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]


def test_config_digest_pinned(tmp_path):
    # the inputs of acceptance criterion 7; the digests predate the shared runner,
    # the two Gaussian ones date from the removal of the config fields h and latent_dim
    gauss = write_json(tmp_path / "gauss.json", {
        "sigma_inv": 1.0, "sigma_spu": 0.5, "mu_spu": 2.0, "p_spu": 0.95,
        "sigma_xi": 0.1, "n": 1500, "d_I": 12, "d_T": 12, "mode": "TheoremExact",
    })
    discrete = write_json(tmp_path / "discrete.json",
                          {"num_classes": 2, "p_inv": 0.75, "p_spu": 0.9, "n_train": 300})
    preds = write(tmp_path / "preds.csv",
                  "sample_id,true_label,group,background,pred_1\n" + "".join(
                      f"e{i},bear,easy,snow,{'bear' if i < 18 else 'wolf'}\n"
                      for i in range(20)) + "".join(
                      f"h{i},bear,hard,grass,{'bear' if i < 7 else 'wolf'}\n"
                      for i in range(20)))
    disc_preds = write(tmp_path / "disc.csv",
                       "sample_id,true_label,group,background,pred_1\n" + "".join(
                           f"s{i},bear,unassigned,snow,{'bear' if i < 19 else 'wolf'}\n"
                           for i in range(20)) + "".join(
                           f"g{i},bear,unassigned,grass,{'bear' if i < 8 else 'wolf'}\n"
                           for i in range(20)))
    sims = write(tmp_path / "sims.csv", "sample_id,cat,dog\ns1,0.9,0.5\ns2,0.8,0.6\n")
    points = write(tmp_path / "points.csv", "easy,hard\n0.6,0.4\n0.8,0.6\n0.7,0.52\n")
    pinned = [
        (["verify-theorem", "--config", gauss, "--mc", "20000"],
         "9f31c804f57dba1aaa3cb87e80ddd8ff618ebd08fa9728480325db9791ba1f74"),
        (["simulate-gaussian", "--config", gauss],
         "270bd6fe0796a54e8eb891314e0fef3efcb0763348692632b64640701c8382cf"),
        (["simulate-discrete", "--config", discrete, "--seeds", "2"],
         "15dc8637a6b24b3c9392a7f8a4d7273faaf3cb8a795464a974eec5caaf794be4"),
        (["eval", "--predictions", preds],
         "50c66acd09c113b5138aaa10e99ef600039d7243923d85552c3344419e421042"),
        (["discover", "--predictions", disc_preds],
         "276b04c3e7e7fa93dd0740071c8c23a1b15a90f41d6b552fe2276fcd9ac20087"),
        (["confuse", "--similarities", sims, "--k", "2"],
         "14158539aaf3ad9a47f192997e219bd60439c500410f8bdf026c9acfd78df8e1"),
        (["fit", "--points", points],
         "1fb1230f00ee5bf5643d3c1dfab8d22865505a9334c4159a6fe2b9ac21bd42ea"),
    ]
    for argv, digest in pinned:
        out = str(tmp_path / f"{argv[0]}.out")
        assert main(argv + ["--out", out]) == 0
        assert manifest_of(out)["config_digest"] == digest, argv[0]


# The schema each shipped config is written against.
SHIPPED_CONFIGS = {"def1_lemma.json": "generative_config",
                   "theorem_exact.json": "generative_config",
                   "discrete_k2.json": "discrete_config"}


class TestConfigSchemas:
    """The config schemas list exactly the dataclass fields, and every config
    the project ships or echoes into a report validates against them."""

    @pytest.mark.parametrize("cls,name", [(GenerativeConfig, "generative_config"),
                                          (DiscreteConfig, "discrete_config")])
    def test_properties_are_the_fields(self, cls, name):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(load_schema(name)["properties"]) == fields

    def test_shipped_configs_validate(self):
        assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(SHIPPED_CONFIGS)
        for file, name in SHIPPED_CONFIGS.items():
            check_schema(read_json(CONFIGS / file), name)

    @pytest.mark.parametrize("argv,config,name", [
        (["verify-theorem", "--mc", "20000", "--out", "r.json"], GAUSS_EXACT,
         "generative_config"),
        (["simulate-gaussian", "--out", "r.json"], GAUSS_DEF1, "generative_config"),
        # the CSV table goes to --out, the JSON report next to it
        (["simulate-discrete", "--seeds", "1", "--out", "r.csv"], DISCRETE,
         "discrete_config"),
    ], ids=["verify-theorem", "simulate-gaussian", "simulate-discrete"])
    def test_echoed_config_validates(self, tmp_path, monkeypatch, argv, config, name):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--config", write_json(tmp_path / "c.json", config)]) == 0
        check_schema(read_json(tmp_path / "r.json")["config"], name)


# Per subcommand: the input option, a valid input, the other arguments,
# the output name and the schema of the report JSON it writes.
FUZZ_CASES = {
    "eval": ("predictions", PREDICTIONS, [], "out.json", "eval_report"),
    "discover": ("predictions", DISCOVER_PREDICTIONS, [], "out.json", "discovery_report"),
    "confuse": ("similarities", SIMILARITIES, ["--k", "1"], "out.json", "confusing_labels"),
    "fit": ("points", POINTS, [], "out.json", "fit_report"),
    "simulate-gaussian": ("config", json.dumps({**GAUSS_DEF1, "n": 40, "d_I": 4, "d_T": 4}),
                          [], "out.json", "subgroup_report"),
    "simulate-discrete": ("config", json.dumps({**DISCRETE, "n_train": 40}),
                          ["--seeds", "1"], "out.csv", "discrete_summary"),
    "verify-theorem": ("config", json.dumps({**GAUSS_DEF1, "n": 40, "d_I": 4, "d_T": 4}),
                       ["--mc", "1000"], "out.json", "verification_report"),
}
# Exit 1 (bounds not met) is a valid outcome only for verify-theorem.
FUZZ_EXITS = {"verify-theorem": (0, 1, 2, 3)}
FUZZ_ALPHABET = ",\n\r\" .-+0123456789eEnaNfIbrswolgyhdpu_:{}[]\u00e4\u2028"
FUZZ_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
                        st.floats(), st.text(FUZZ_ALPHABET, max_size=4),
                        st.lists(st.integers(-1, 4), max_size=3))


@st.composite
def malformed_input(draw):
    """A subcommand and its input file's bytes: a valid input with cells
    spliced, deleted or replaced, invalid UTF-8 inserted, or (configs only)
    one field set to an arbitrary JSON value."""
    subcommand = draw(st.sampled_from(sorted(FUZZ_CASES)))
    text = FUZZ_CASES[subcommand][1]
    if text.startswith("{") and draw(st.booleans()):
        fields = sorted(json.loads(text)) + ["seed", "unknown"]
        config = {**json.loads(text), draw(st.sampled_from(fields)): draw(FUZZ_VALUES)}
        return subcommand, json.dumps(config).encode("utf-8")
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 12)))
        text = text[:start] + draw(st.text(FUZZ_ALPHABET, max_size=8)) + text[stop:]
    data = text.encode("utf-8")
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xe4", b"\x00"])) + data[cut:]
    return subcommand, data


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=150, deadline=None)
@given(case=malformed_input())
@example(case=("simulate-gaussian", json.dumps(GAUSS_OVERFLOW).encode("utf-8")))
@example(case=("simulate-gaussian", json.dumps(GAUSS_INT_MEANS).encode("utf-8")))
@example(case=("verify-theorem", json.dumps(GAUSS_INT_MEANS).encode("utf-8")))
def test_fuzzed_input_keeps_cli_contract(case):
    subcommand, data = case
    role, _, extra, out_name, schema = FUZZ_CASES[subcommand]
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "input"
        source.write_bytes(data)
        out = Path(tmp) / out_name
        assert main([subcommand, f"--{role}", str(source), *extra,
                     "--out", str(out)]) in FUZZ_EXITS.get(subcommand, (0, 2, 3))
        for path in Path(tmp).glob("*.json"):
            name = "run_manifest" if path.name.endswith(".manifest.json") else schema
            check_schema(strict_json(path.read_text(encoding="utf-8")), name)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spurious_lens.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout
