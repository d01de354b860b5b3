import contextlib
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spurious_lens import DiscreteConfig, GenerativeConfig, __version__, load_schema
from spurious_lens import cli, discrete
from spurious_lens.cli import main
from spurious_lens.errors import ParseError
from spurious_lens.evaluation import (SimilarityTable, fmt_pct, load_points,
                                      load_predictions, load_similarities)
from spurious_lens.inputs import read_pieces

GAUSS_EXACT = {
    "sigma_inv": 1.0, "sigma_spu": 0.5, "mu_spu": 2.0, "p_spu": 0.95,
    "sigma_xi": 0.1, "n": 2000, "d_I": 16, "d_T": 16, "mode": "TheoremExact",
}
GAUSS_DEF1 = {
    "sigma_inv": 1.0, "sigma_spu": 0.5, "mu_spu": 1.0, "p_spu": 0.9,
    "sigma_xi": 0.01, "n": 2000, "d_I": 16, "d_T": 16, "mode": "Def1",
}
DISCRETE = {"num_classes": 2, "p_inv": 0.75, "p_spu": 0.9, "n_train": 400}
# A Def1 config whose training sums overflow.
GAUSS_OVERFLOW = {**GAUSS_DEF1, "mu_spu": 1e155, "n": 40, "d_I": 4, "d_T": 4}
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
        assert (payload["mc_stream"], payload["train_stream"]) == (3, 2)
        check_schema(payload, "verification_report")
        check_schema(manifest_of(out), "run_manifest")

    def test_unmet_tolerance_exits_one(self, tmp_path):
        # image noise this large pulls the exact aligned accuracy to 0.946,
        # more than the 0.01 tolerance below its 0.975 bound
        cfg = write_json(tmp_path / "c.json", {
            "mode": "TheoremExact", "mu_spu": 2.0, "p_spu": 0.95, "sigma_xi": 1.0,
            "d_I": 4, "d_T": 4})
        out = str(tmp_path / "report.json")
        rc = main(["verify-theorem", "--config", cfg, "--mc", "2000",
                   "--seed", "0", "--out", out])
        assert rc == 1
        assert read_json(out)["passed"] is False

    def test_reports_byte_identical_across_runs(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", GAUSS_EXACT)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            main(["verify-theorem", "--config", cfg, "--mc", "2000",
                  "--seed", "0", "--out", out])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_manifest_digest_tracks_inputs(self, tmp_path):
        cfg = write_json(tmp_path / "config.json", GAUSS_EXACT)
        a, b, c = (str(tmp_path / n) for n in ("a.json", "b.json", "c.json"))
        main(["verify-theorem", "--config", cfg, "--mc", "2000",
              "--out", a])
        main(["verify-theorem", "--config", cfg, "--mc", "2000",
              "--out", b])
        main(["verify-theorem", "--config", cfg, "--mc", "2000",
              "--seed", "1", "--out", c])
        assert manifest_of(a)["config_digest"] == manifest_of(b)["config_digest"]
        assert manifest_of(a)["config_digest"] != manifest_of(c)["config_digest"]
        m = manifest_of(a)
        assert m["subcommand"] == "verify-theorem"
        assert m["version"] == __version__
        assert m["outputs"] == [a]

    def test_timestamp_only_in_manifest(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", GAUSS_EXACT)
        out = str(tmp_path / "report.json")
        main(["verify-theorem", "--config", cfg, "--mc", "2000", "--out", out])
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

    @pytest.mark.parametrize("fields,named", [
        # 2 mu_spu p_spu overflows to inf without raising, so each margin is nan
        ({"mode": "TheoremExact", "mu_spu": 1e308}, "mu_spu=1e+308,"),
    ], ids=["TheoremExact-mu_spu-nan"])
    def test_margin_overflow_names_the_parameters(self, tmp_path, capsys, fields, named):
        cfg = write_json(tmp_path / "c.json", fields)
        out = tmp_path / "r.json"
        assert main(["verify-theorem", "--config", cfg, "--mc", "1000", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the margins overflow a float at sigma_inv=")
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("sigma_inv", [1e155, 1e300])
    def test_margins_past_the_square_of_sigma_inv_pass(self, tmp_path, sigma_inv):
        # sigma_inv^2 overflows, but the margins tend to -+1 / sigma_inv
        cfg = write_json(tmp_path / "c.json", {"mode": "TheoremExact", "sigma_inv": sigma_inv})
        out = tmp_path / "r.json"
        assert main(["verify-theorem", "--config", cfg, "--mc", "100000",
                     "--out", str(out)]) == 0
        report = read_json(out)
        rates = [report["bounds"]["err_lower_conflicting"], report["bounds"]["acc_lower_aligned"],
                 report["exact_err_conflicting"], report["exact_acc_aligned"]]
        assert all(abs(rate - 0.5) <= 1e-12 for rate in rates), rates

    def test_def1_sigma_inv_past_the_square_names_the_training_overflow(self, tmp_path,
                                                                         capsys):
        # the bounds are finite; the latents' training sums are not
        cfg = write_json(tmp_path / "c.json", {"mode": "Def1", "sigma_inv": 1e200})
        out = tmp_path / "r.json"
        assert main(["verify-theorem", "--config", cfg, "--mc", "1000", "--out", str(out)]) == 3
        assert capsys.readouterr().err.endswith(
            "error: the latent Gram matrix C^T C overflows a float at mu_inv=1, mu_spu=1, "
            "sigma_inv=1e+200, sigma_spu=0.5\n")
        assert not out.exists()

    def test_theorem_exact_builds_no_d_sized_array(self, tmp_path, capsys):
        # a d_I x d_T matrix of these dims would take 2**65 bytes: only the
        # paths that build one refuse it
        big = {"d_I": 2**31, "d_T": 2**31}
        exact = write_json(tmp_path / "exact.json", {**GAUSS_EXACT, **big})
        def1 = write_json(tmp_path / "def1.json", {**GAUSS_DEF1, **big})
        small = write_json(tmp_path / "small.json", GAUSS_EXACT)
        for config, out in ((exact, "v.json"), (small, "s.json")):
            assert main(["verify-theorem", "--config", config, "--mc", "20000",
                         "--out", str(tmp_path / out)]) == 0
        # the bounds do not depend on the dims
        assert read_json(tmp_path / "v.json")["bounds"] == read_json(tmp_path / "s.json")["bounds"]
        capsys.readouterr()
        for argv in (["simulate-gaussian", "--config", exact],
                     ["simulate-gaussian", "--config", def1],
                     ["verify-theorem", "--config", def1, "--mc", "20000"]):
            assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
            assert capsys.readouterr().err == (
                "error: a d_I x d_T matrix would take 36893488147419103232 bytes, "
                "more than numpy's largest array (9223372036854775807 bytes)\n")

    @pytest.mark.parametrize("fields,kappas", [
        # the margins square neither sigma_inv nor 1 + sigma_inv^2 ...
        ({"mode": "TheoremExact", "sigma_inv": 1e78}, (1e-78, -1e-78)),
        # ... nor the coupling weight: t tends to -+1 / sigma_spu
        ({"mode": "TheoremExact", "mu_spu": 1e300}, (-2.0, -2.0)),
        # and the trained matrix's norms are taken on a copy scaled by a power of two
        ({"mode": "Def1", "sigma_inv": 1e78}, (1e-78, -1e-78)),
        # sigma_inv^2 underflows to 0, sigma_inv does not
        ({**GAUSS_EXACT, "sigma_inv": 1e-170, "sigma_spu": 0}, (-1.8e170, -3.8e170)),
    ], ids=["TheoremExact-sigma_inv", "TheoremExact-mu_spu", "Def1-sigma_inv",
            "TheoremExact-sigma_inv-tiny"])
    def test_finite_margins_past_a_square_pass(self, tmp_path, fields, kappas):
        cfg = write_json(tmp_path / "c.json", fields)
        out = tmp_path / "r.json"
        assert main(["verify-theorem", "--config", cfg, "--mc", "100000",
                     "--out", str(out)]) == 0
        bounds = read_json(out)["bounds"]
        assert (bounds["kappa1"], bounds["kappa2"]) == kappas


class TestSimulateGaussian:
    def test_report_and_manifest(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", GAUSS_DEF1)
        out = str(tmp_path / "sim.json")
        rc = main(["simulate-gaussian", "--config", cfg, "--seed", "0",
                   "--out", out])
        assert rc == 0
        assert capsys.readouterr().out == ""
        payload = read_json(out)
        assert (payload["mc_stream"], payload["train_stream"]) == (3, 2)
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
        # the latent Gram matrix overflows: the run exits 3 before it
        # reports an accuracy that it would then discard
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


class TestPinnedSubgroupOutcomes:
    """Subgroup counts of the p_spu = 1/2 test pass: (correct, size) of the
    aligned and the conflicting subgroup, recorded with Monte-Carlo stream 3
    and, where a matrix is trained, training stream 2.  Integer ratios, so
    BLAS rounding can move them only through a cell's hit probability."""

    @pytest.mark.parametrize("name,aligned,conflicting", [
        ("theorem_exact", (9685, 9952), (3716, 10048)),
        ("def1_lemma", (9074, 9952), (7267, 10048)),
    ])
    def test_verify_theorem(self, tmp_path, name, aligned, conflicting):
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

    def test_simulate_gaussian(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {**GAUSS_DEF1, "n": 40000, "d_I": 8, "d_T": 8})
        out = str(tmp_path / "sim.json")
        assert main(["simulate-gaussian", "--config", cfg, "--seed", "1",
                     "--out", out]) == 0
        report = read_json(out)
        assert {key: report[key] for key in ("acc_overall", "acc_aligned",
                                             "acc_conflicting", "n_aligned",
                                             "n_conflicting", "n_test")} == {
            "acc_overall": 32663 / 40000, "acc_aligned": 18382 / 20078,
            "acc_conflicting": 14281 / 19922, "n_aligned": 20078,
            "n_conflicting": 19922, "n_test": 40000,
        }


@pytest.mark.parametrize("argv,config,schema", [
    (["simulate-gaussian"], {**GAUSS_DEF1, "n": 2**63 - 1}, "subgroup_report"),
    (["verify-theorem", "--mc", str(2**63 - 1)], GAUSS_EXACT, "verification_report"),
], ids=["simulate-gaussian", "verify-theorem"])
def test_largest_test_set_finishes(tmp_path, argv, config, schema):
    # the test pass draws its counts from their law, so 2**63 - 1 test
    # samples cost what 1000 do
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert main([*argv, "--config", write_json(tmp_path / "c.json", config),
                 "--out", str(out)]) == 0
    assert time.perf_counter() - start < 2.0
    report = strict_json(out.read_text(encoding="utf-8"))
    check_schema(report, schema)
    assert report["n_aligned" if schema == "subgroup_report" else "mc_samples"] > 2**61
    rates = [value for key, value in report.items() if key.startswith(("acc_", "mc_", "exact_"))
             and isinstance(value, float)]
    assert len(rates) >= 4 and all(math.isfinite(rate) for rate in rates)


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
        assert sidecar["train_schedule"] == 4
        manifest = manifest_of(out)
        check_schema(manifest, "run_manifest")
        assert set(manifest["outputs"]) == {out, str(Path(out).with_suffix(".json"))}

    def test_single_seed_zero_std(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", DISCRETE)
        out = str(tmp_path / "table.csv")
        main(["simulate-discrete", "--config", cfg, "--seeds", "1", "--out", out])
        row = Path(out).read_text(encoding="utf-8").strip().splitlines()[1]
        assert "± 0.00" in row

    def test_rest_cell_is_the_summary_rest(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {**DISCRETE, "num_classes": 3})
        out = str(tmp_path / "table.csv")
        assert main(["simulate-discrete", "--config", cfg, "--seeds", "1", "--out", out]) == 0
        rows = Path(out).read_text(encoding="utf-8").strip().splitlines()[1:]
        summaries = read_json(Path(out).with_suffix(".json"))["summaries"]
        assert len(rows) == len(summaries) == 2
        for row, summary in zip(rows, summaries):
            mean, std = summary["rest_mean"], summary["rest_std"]
            assert row.split(",")[7] == f"{fmt_pct(mean)} ± {fmt_pct(std)}"

    def test_unended_descent_exits_three(self, tmp_path, monkeypatch, capsys):
        # with no decrement stop this separable split steps until the bound
        monkeypatch.setattr(discrete, "RIDGE", 1e-3)
        monkeypatch.setattr(discrete, "_DECREMENT", 0.0)
        cfg = write_json(tmp_path / "c.json", {**DISCRETE, "p_inv": 1.0, "n_train": 3000,
                                               "feature_noise": 0.0})
        out = tmp_path / "t.csv"
        assert main(["simulate-discrete", "--config", cfg, "--seeds", "1",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: the descent did not end within 50 Newton steps\n")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

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
    ({"c.json": json.dumps({**DISCRETE, "biased_colors": [2, 3]})},
     ["simulate-discrete", "--config", "c.json", "--out", "r.csv"],
     2, "unknown config fields: ['biased_colors']"),
    # a training split of 100 × 2·10¹⁵ float64 cells is 1.39 EiB, more than a
    # 57-bit address space holds, so the allocation fails before a page is touched
    ({"c.json": json.dumps({**DISCRETE, "num_classes": 10**15, "n_train": 100})},
     ["simulate-discrete", "--config", "c.json", "--out", "r.csv"],
     2, "Unable to allocate 1.39 EiB"),
    ({"c.json": json.dumps(GAUSS_OVERFLOW)},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"],
     3, "error: the latent Gram matrix C^T C overflows a float at mu_inv=1, "
        "mu_spu=1e+155, sigma_inv=1, sigma_spu=0.5\n"),
    ({"c.json": json.dumps(GAUSS_OVERFLOW)},
     ["verify-theorem", "--config", "c.json", "--mc", "2000", "--out", "r.json"],
     2, "mu_spu"),
    ({"c.json": json.dumps(GAUSS_EXACT)},
     ["verify-theorem", "--config", "c.json", "--mc", "100000000000000000000",
      "--out", "r.json"],
     2, "mc_samples must be <= 9223372036854775807"),
    # sizes numpy cannot represent: its ValueError would be an internal error
    ({"c.json": json.dumps({**DISCRETE, "num_classes": 10**18, "n_train": 30})},
     ["simulate-discrete", "--config", "c.json", "--out", "r.csv"],
     2, "training features would take"),
    # as many colors as classes: a config that sets the count is refused
    ({"c.json": json.dumps({**DISCRETE, "num_colors": 2})},
     ["simulate-discrete", "--config", "c.json", "--out", "r.csv"],
     2, "unknown config fields: ['num_colors']"),
    ({"c.json": json.dumps({**DISCRETE, "n_train": 10**20})},
     ["simulate-discrete", "--config", "c.json", "--out", "r.csv"],
     2, "n_train must be <= 9223372036854775807"),
    ({"c.json": json.dumps({**GAUSS_DEF1, "d_I": 10**18})},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"],
     2, "a d_I x d_T matrix would take"),
    ({"c.json": json.dumps({**GAUSS_DEF1, "d_T": 10**20})},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"],
     2, "d_T must be <= 9223372036854775807"),
    ({"c.json": json.dumps({**GAUSS_DEF1, "d_I": 10**18})},
     ["verify-theorem", "--config", "c.json", "--out", "r.json"],
     2, "a d_I x d_T matrix would take"),
    ({"p.csv": PREDICTIONS}, ["eval", "--predictions", "p.csv", "--out", ""], 2, "--out"),
    ({"p.csv": POINTS_OK}, ["fit", "--points", "p.csv", "--out", "."], 2, "--out"),
    ({"p.csv": POINTS_OK}, ["fit", "--points", "p.csv", "--out", "/"], 2, "--out"),
    # the experiment itself fails on this config, so naming --out shows that
    # the output path is checked before the subcommand runs
    ({"c.json": json.dumps({**DISCRETE, "num_classes": 10**15, "n_train": 100})},
     ["simulate-discrete", "--config", "c.json", "--out", ""], 2, "--out"),
    ({"c.json": "[" * 100_000 + "]" * 100_000},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"],
     2, "config is not valid JSON"),
    # past Python's int-string digit limit where it has one (3.10.7 and later),
    # out of n's range where it has none
    ({"c.json": '{"n": ' + "9" * 5000 + "}"},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"], 2, "error: "),
    ({"p.csv": "easy,hard\n0.5,0.5\n0.5000000000000001,0.6\n"},
     ["fit", "--points", "p.csv", "--out", "r.json"], 3, "x values too close to distinguish"),
    ({"p.csv": "sample_id,true_label,group,background,pred_1\n"},
     ["eval", "--predictions", "p.csv", "--out", "r.json"], 2, "no records to score"),
    # sigma_inv times the first column's share, about 1e-200, underflows to 0
    ({"c.json": json.dumps({**GAUSS_EXACT, "sigma_inv": 1e-170, "sigma_spu": 0,
                            "mu_spu": 1e200})},
     ["verify-theorem", "--config", "c.json", "--out", "r.json"],
     3, "singular parameters: margin has zero variance"),
    # an integer past the largest float: float() of it would overflow
    ({"c.json": json.dumps({**GAUSS_EXACT, "sigma_xi": 10**400})},
     ["verify-theorem", "--config", "c.json", "--out", "r.json"],
     2, "config field sigma_xi must be a finite number"),
    ({"c.json": json.dumps({**GAUSS_DEF1, "rho": -10**400})},
     ["simulate-gaussian", "--config", "c.json", "--out", "r.json"],
     2, "config field rho must be a finite number"),
    ({"c.json": json.dumps({**DISCRETE, "p_inv": 10**400})},
     ["simulate-discrete", "--config", "c.json", "--out", "r.csv"],
     2, "config field p_inv must be a finite number"),
    ({"p.csv": "sample_id,true_label,group,background,pred_1\n"},
     ["discover", "--predictions", "p.csv", "--threshold", "5", "--out", "r.json"],
     2, "no records to score"),
], ids=["fit-nan-hard", "fit-nan-easy", "fit-inf-easy", "fit-out-of-range",
        "eval-non-utf8", "confuse-non-utf8", "config-float-for-int",
        "config-bool-for-float", "config-bool-seed", "config-non-utf8",
        "sidecar-overwrites-config", "out-overwrites-input", "svg-is-out",
        "svg-is-manifest", "svg-dir-missing", "discover-threshold-nan",
        "eval-oversized-cell", "gaussian-impossible-size",
        "gaussian-negative-seed", "gaussian-repeated-field", "discrete-repeated-field",
        "gaussian-removed-field", "discrete-removed-field", "discrete-unallocatable",
        "gaussian-overflow", "verify-def1-off-regime",
        "verify-mc-impossible", "discrete-classes-unrepresentable",
        "discrete-removed-num-colors", "discrete-n-train-unrepresentable",
        "gaussian-d-image-unrepresentable", "gaussian-d-text-unrepresentable",
        "verify-d-image-unrepresentable", "eval-out-empty", "fit-out-dot",
        "fit-out-root", "discrete-out-empty", "config-deep-nesting",
        "config-int-too-long", "fit-x-too-close", "eval-header-only",
        "verify-singular-margin", "verify-int-past-float", "gaussian-int-past-float",
        "discrete-int-past-float", "discover-header-only"])
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
    monkeypatch.setattr(cli, "load_similarities", lambda path, digest: SimilarityTable(
        candidates=("cat", "dog"), n_samples=1, means=[float("nan"), 0.5]))
    rc = main(["confuse", "--similarities", sims, "--k", "1",
               "--out", str(tmp_path / "c.json")])
    assert rc == 3
    assert "strict JSON" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]


@pytest.mark.parametrize("argv,directory", [
    (["simulate-discrete", "--config", "c.json", "--out", "d"], "d"),
    (["simulate-discrete", "--config", "c.json", "--out", "t.csv"], "t.manifest.json"),
    (["simulate-discrete", "--config", "c.json", "--out", "t.csv"], "t.json"),
    (["fit", "--points", "p.csv", "--out", "d"], "d"),
    (["fit", "--points", "p.csv", "--svg", "d", "--out", "f.json"], "d"),
    (["fit", "--points", "p.csv", "--out", "f.json"], "f.svg"),
], ids=["discrete-out", "discrete-manifest", "discrete-summary", "fit-out", "fit-svg",
        "fit-default-svg"])
def test_output_directory_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                     argv, directory):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "c.json", DISCRETE)
    write(tmp_path / "p.csv", POINTS)
    (tmp_path / directory).mkdir()
    ran = []
    monkeypatch.setattr(cli, "run_discrete_experiment", lambda *args: ran.append(args))
    monkeypatch.setattr(cli, "load_points", lambda *args: ran.append(args))
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: output {directory} is a directory\n"
    assert ran == []
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv,message", [
    (["simulate-discrete", "--config", "c.json", "--seeds", "3", "--out", "d.json"],
     "output d.json would overwrite output d.json"),
    (["simulate-discrete", "--config", "c.json", "--out", "missing/d.csv"],
     "output missing/d.csv: no directory missing"),
    (["simulate-discrete", "--config", "c.json", "--out", "c.csv"],
     "output c.json would overwrite input c.json"),
    (["simulate-gaussian", "--config", "c.json", "--out", "c.json"],
     "output c.json would overwrite input c.json"),
    (["fit", "--points", "p.csv", "--svg", "", "--out", "f.json"],
     "output '' names no file"),
    (["fit", "--points", "p.csv", "--svg", "missing/f.svg", "--out", "f.json"],
     "output missing/f.svg: no directory missing"),
    (["fit", "--points", "p.csv", "--out", "missing/f.json"],
     "output missing/f.json: no directory missing"),
    (["fit", "--points", "p.csv", "--svg", "f.manifest.json", "--out", "f.json"],
     "output f.manifest.json would overwrite output f.manifest.json"),
    (["fit", "--points", "p.csv", "--svg", "p.csv", "--out", "f.json"],
     "output p.csv would overwrite input p.csv"),
    (["fit", "--points", "p.csv", "--svg", "nod/", "--out", "f.json"],
     "output 'nod/' names no file"),
    (["fit", "--points", "p.csv", "--out", "a.json/"], "--out 'a.json/' names no file"),
    (["fit", "--points", "p.csv", "--out", "x/."], "--out 'x/.' names no file"),
], ids=["discrete-summary-is-out", "discrete-dir-missing", "discrete-summary-is-config",
        "gaussian-out-is-config", "fit-svg-empty", "fit-svg-dir-missing", "fit-dir-missing",
        "fit-svg-is-manifest", "fit-svg-is-points", "fit-svg-trailing-sep",
        "fit-out-trailing-sep", "fit-out-trailing-dot"])
def test_bad_output_path_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                    argv, message):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "c.json", DISCRETE)
    write(tmp_path / "p.csv", POINTS)
    ran = []
    for name in ("load_config", "run_discrete_experiment", "load_points"):
        monkeypatch.setattr(cli, name, lambda *args: ran.append(args))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert ran == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_write_removes_the_outputs_written(tmp_path, monkeypatch, capsys):
    # fit writes its report, its SVG and its manifest; the SVG's write fails
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "p.csv", POINTS)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    write_bytes, written = Path.write_bytes, []

    def fail_second(path, data):
        written.append(path.name)
        if len(written) == 2:
            raise OSError(28, "No space left on device")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", fail_second)
    assert main(["fit", "--points", "p.csv", "--out", "f.json"]) == 2
    assert capsys.readouterr().err.endswith("\nerror: [Errno 28] No space left on device\n")
    assert written == ["f.json", "f.svg"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_internal_error_exits_four_without_output(tmp_path, monkeypatch, capsys):
    preds = write(tmp_path / "p.csv", PREDICTIONS)

    def fail(*args):
        raise KeyError("x")

    monkeypatch.setattr(cli, "group_report", fail)
    assert main(["eval", "--predictions", preds, "--out", str(tmp_path / "r.json")]) == 4
    assert capsys.readouterr().err == "error: internal: KeyError: 'x'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-string digit limit")
def test_integer_past_the_digit_limit_names_the_limit(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", '{"n": ' + "9" * 5000 + "}")
    assert main(["simulate-gaussian", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == (
        f"error: config integer has more digits than the {limit} allowed\n")


def test_config_digest_pinned(tmp_path):
    # the inputs of acceptance criterion 7; the digests predate the shared runner,
    # simulate-gaussian's dates from the removal of the config fields h and latent_dim,
    # verify-theorem's from the removal of --tol, simulate-discrete's from the
    # removal of num_colors
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
         "944825dc1c9da0e288207cb57be8a06c267320a26a9c4f4e2297acbd6a006f72"),
        (["simulate-gaussian", "--config", gauss],
         "270bd6fe0796a54e8eb891314e0fef3efcb0763348692632b64640701c8382cf"),
        (["simulate-discrete", "--config", discrete, "--seeds", "2"],
         "33117cbd6331a6aad632209f5bdbba73832b17ebddd1d8c796f06f22f3c8b5c4"),
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


def rounded(value):
    """JSON data with each float kept to 12 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [rounded(item) for item in value]
    return value


# Reports pinned raw, each as (argv, --out file name, {written file: digest}).
# Each was one digest under OPENBLAS_CORETYPE default, Prescott, Nehalem,
# Haswell, SkylakeX and Zen.  verify-theorem in TheoremExact takes its margins
# in closed form, fit solves its least squares by math.fsum, and the CSV
# subcommands count and sum in file order: none multiplies through BLAS.
# simulate-discrete does, but it reports only accuracies over 4000-row test
# splits, which the last bits of the trained weights do not move; its bytes
# are those of training schedule 4 (the CSV's are schedule 3's too).  The
# one-candidate confuse table's mean is 0.1 summed pairwise, as numpy sums a
# lone column, and 0.09999999999999999 summed in file order, as a wider table
# sums each of its columns.
RAW_PINS = [
    (["verify-theorem", "--config", "exact.json", "--mc", "20000", "--seed", "3"], "v.json",
     {"v.json": "e2b657b3ed86281339d7f184d82de5b9383525eb8bc4b49ed6314f52b8de95c1"}),
    (["fit", "--points", "pts.csv"], "f.json", {
        "f.json": "82db422198871504015dd5d8389d9e2407f12cf03a9163d57a9e5e5a923daaab",
        "f.svg": "1ca651f69722283a6ed1ac0ccfae0485e7e5d19fa19736c6c41bc8e0a4f3f556"}),
    (["fit", "--points", "pts.csv", "--transform", "probit"], "p.json", {
        "p.json": "e855350ab7aed89426eaa4b4eb587a24303fb260c85e5261536e2768c5c37eab",
        "p.svg": "e9de616e3ba65a0bde3672ea12c79ed7fe4d75e1744ed2949e4755a7d94fb58c"}),
    (["eval", "--predictions", "preds.csv"], "e.json",
     {"e.json": "85106daac55723a2e15c30a6c930bef9f14b7533bce1b565c735293a784aa51c"}),
    (["discover", "--predictions", "disc.csv", "--threshold", "5", "--min-count", "20"],
     "d.json", {"d.json": "087af60696360bef492d815244bb724f9b849fcf41cb52762088db095b91299b"}),
    (["confuse", "--similarities", "sims.csv", "--k", "2"], "c.json",
     {"c.json": "eb68c749647d626586a03e01d7395fc2e764ffa7a1191e9e03157d80da28daa7"}),
    (["confuse", "--similarities", "one.csv", "--k", "1"], "o.json",
     {"o.json": "e7f7d3b4323d27e593a16916e66e90a761be71824fa637e619b708f1548eccbd"}),
    (["simulate-discrete", "--config", "k2.json", "--seeds", "2"], "s.csv", {
        "s.csv": "30825f71e33fb34d4ad2c4e7e543849932d45c9e14cd00f6159995f2830761f6",
        "s.json": "bee35c36922020809f5f905296bd404af4c1dea11f92e4c02d27bb00e311db3c"}),
]

# Runs each argv of a JSON list through main in one interpreter and prints
# the exit codes.
RUN_ALL = ("import json, sys\n"
           "from spurious_lens.cli import main\n"
           "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")


def has_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its build configuration
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def test_raw_pinned_reports_keep_their_bytes_under_two_kernels(tmp_path):
    """RAW_PINS byte for byte, in a child process under the default OpenBLAS
    kernel and in one under OPENBLAS_CORETYPE=Prescott, the SSE3 kernel that
    every x86-64 CPU runs (a kernel the CPU lacks would stop the child on an
    illegal instruction).  Def1 verify-theorem and simulate-gaussian are not
    here: training_moments, empirical_minimizer and alignment_gap multiply
    d x d matrices through BLAS, and those reports carry the last bits, so
    test_gaussian_report_bytes_pinned rounds them."""
    write_json(tmp_path / "exact.json", GAUSS_EXACT)
    write(tmp_path / "pts.csv", POINTS)
    write(tmp_path / "preds.csv", PREDICTIONS)
    write(tmp_path / "disc.csv", DISCOVER_PREDICTIONS)
    write(tmp_path / "sims.csv", SIMILARITIES)
    write(tmp_path / "one.csv", "sample_id,cat\n" + "".join(f"s{i},0.1\n" for i in range(8)))
    write(tmp_path / "k2.json", (Path(__file__).resolve().parents[1] / "configs"
                                 / "discrete_k2.json").read_text(encoding="utf-8"))
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    for kernel in ("default", "Prescott"):
        (tmp_path / kernel).mkdir()
        argvs = [argv + ["--out", f"{kernel}/{out}"] for argv, out, _ in RAW_PINS]
        proc = subprocess.run(
            [sys.executable, "-c", RUN_ALL, json.dumps(argvs)], cwd=tmp_path,
            env=env if kernel == "default" else {**env, "OPENBLAS_CORETYPE": kernel},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0] * len(RAW_PINS), proc.stderr
        for argv, _, digests in RAW_PINS:
            for name, digest in digests.items():
                data = (tmp_path / kernel / name).read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest, (argv, name, kernel)
    if not has_openblas():
        pytest.skip("numpy has no OpenBLAS, so OPENBLAS_CORETYPE selects nothing: "
                    "the pins were compared under one kernel")


def test_gaussian_report_bytes_pinned(tmp_path):
    """The reports that train a matrix, with each float rounded to 12
    significant digits: their raw bytes go through the d x d BLAS products of
    training_moments, empirical_minimizer and alignment_gap and moved in their
    last bits with the OpenBLAS kernel, while the rounded digests were the
    same under each kernel tried (OPENBLAS_CORETYPE Prescott, Nehalem,
    SandyBridge, Haswell, SkylakeX, Cooperlake and Zen)."""
    exact = write_json(tmp_path / "exact.json", GAUSS_EXACT)
    def1 = write_json(tmp_path / "def1.json", GAUSS_DEF1)
    pinned = [
        (["simulate-gaussian", "--config", exact, "--seed", "0"],
         "db2b3713b3a18246c8531a9dc765ad4c4369d462951498b42c67e78d8e9dfc98"),
        (["verify-theorem", "--config", def1, "--mc", "20000", "--seed", "3"],
         "a7c26733347ff700eaf4165104b272bd35ddaaee345862f4ea31dabadd66872e"),
        (["simulate-gaussian", "--config", def1, "--seed", "0"],
         "84831dafeb2bb44fa280eb6de5b0439d0577d361d7a79ea34723ced0c06a2d04"),
    ]
    for i, (argv, digest) in enumerate(pinned):
        out = tmp_path / f"{i}.json"
        assert main(argv + ["--out", str(out)]) == 0
        data = json.dumps(rounded(json.loads(out.read_bytes())), sort_keys=True)
        assert hashlib.sha256(data.encode("utf-8")).hexdigest() == digest, argv


def test_input_files_are_digested_in_pieces(tmp_path):
    # the loaders' reads digest an input as they go, never holding the file
    text = np.random.default_rng(0).bytes(4_000_000).hex()
    data = "\n".join(text[i:i + 99] for i in range(0, len(text), 99)).encode("ascii")
    path = tmp_path / "big.csv"
    path.write_bytes(data)
    digest = hashlib.sha256()
    tracemalloc.start()
    try:
        for _ in read_pieces(path, 1 << 14, digest):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()


def test_manifest_digests_the_bytes_parsed(tmp_path, monkeypatch):
    """An input that changes after its loader read it is digested as read."""
    sims = tmp_path / "s.csv"
    sims.write_text(SIMILARITIES, encoding="utf-8")
    load = cli.load_similarities

    def load_then_change(path, digest):
        table = load(path, digest=digest)
        sims.write_text(SIMILARITIES + "s4,0.1,0.1,0.1\n", encoding="utf-8")
        return table

    monkeypatch.setattr(cli, "load_similarities", load_then_change)
    out = tmp_path / "c.json"
    assert main(["confuse", "--similarities", str(sims), "--k", "1", "--out", str(out)]) == 0
    assert read_json(out)["n_samples"] == 3
    params = {"k": 1, "similarities_sha256": hashlib.sha256(SIMILARITIES.encode()).hexdigest(),
              "subcommand": "confuse"}
    assert manifest_of(out)["config_digest"] == cli._digest(params)


@contextlib.contextmanager
def fed_pipe(path: Path, data: bytes):
    """(path, served): a named pipe at ``path`` whose first reader reads
    ``data`` and any later one nothing, as from a stream that was used up,
    and a list of what was written, empty while no reader has opened the
    pipe.  A writer thread meets every open, so no read blocks a test."""
    os.mkfifo(path)
    done, served = threading.Event(), []

    def feed():
        chunk = data
        while not done.is_set():
            with contextlib.suppress(BrokenPipeError), open(path, "wb") as pipe:
                if not done.is_set():
                    served.append(chunk)
                pipe.write(chunk)
            chunk = b""

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield str(path), served
    finally:
        done.set()
        while writer.is_alive():  # a writer waiting in open goes on once a reader opens
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(0.01)


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a child process, so that a read that hangs fails the test."""
    return subprocess.run([sys.executable, "-m", "spurious_lens.cli", *argv],
                          capture_output=True, text=True, timeout=60)


class TestPipedInput:
    """A CSV input is read twice, so a pipe is refused before it is opened;
    the config is read once, so a piped config works."""

    @pytest.mark.parametrize("load,what,text", [
        (load_predictions, "prediction", PREDICTIONS),
        (load_similarities, "similarity", SIMILARITIES),
        (load_points, "points", POINTS),
    ], ids=["predictions", "similarities", "points"])
    def test_loader_refuses_a_pipe(self, tmp_path, load, what, text):
        with fed_pipe(tmp_path / "in.csv", text.encode()) as (pipe, served):
            with pytest.raises(ParseError) as exc:
                load(pipe)
        assert str(exc.value) == f"{what} file {pipe}: a CSV input must be a regular file"
        assert served == []

    def test_missing_file_keeps_its_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_similarities(tmp_path / "absent.csv")

    def test_cli_refuses_a_piped_csv(self, tmp_path):
        out = tmp_path / "r.json"
        with fed_pipe(tmp_path / "s.csv", SIMILARITIES.encode()) as (pipe, served):
            proc = run_cli("confuse", "--similarities", pipe, "--k", "1", "--out", str(out))
        assert proc.returncode == 2
        assert served == []  # neither the loader nor the digest opened it
        assert proc.stderr == (f"error: similarity file {pipe}: "
                               "a CSV input must be a regular file\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]

    def test_cli_reads_a_piped_config(self, tmp_path):
        config = json.dumps(GAUSS_EXACT)
        outs = [tmp_path / "file.json", tmp_path / "pipe.json"]
        assert main(["simulate-gaussian", "--config", write(tmp_path / "c.json", config),
                     "--out", str(outs[0])]) == 0
        with fed_pipe(tmp_path / "p.json", config.encode()) as (pipe, _):
            proc = run_cli("simulate-gaussian", "--config", pipe, "--out", str(outs[1]))
        assert proc.returncode == 0, proc.stderr
        # a second read of the pipe would find it empty
        assert outs[1].read_bytes() == outs[0].read_bytes()


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


@pytest.mark.parametrize("subcommand", sorted(FUZZ_CASES))
def test_command_starts_no_thread(tmp_path, monkeypatch, subcommand):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    role, text, extra, out_name, _ = FUZZ_CASES[subcommand]
    source = write(tmp_path / "input", text)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main([subcommand, f"--{role}", source, *extra,
                 "--out", str(tmp_path / out_name)]) == 0


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

    def test_import_loads_no_thread_pool(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, spurious_lens.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_no_xml_library_is_loaded(self, tmp_path):
        # the fit SVG is written as text, so no subcommand needs ElementTree
        argv = ["fit", "--points", write(tmp_path / "p.csv", POINTS),
                "--out", str(tmp_path / "f.json")]
        code = (f"import sys, spurious_lens.cli as cli; cli.main({argv!r}); "
                "print(sorted({'xml.etree.ElementTree', 'pyexpat'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "f.svg").is_file()

    def test_statistics_loads_only_for_the_probit_fit(self, tmp_path):
        # statistics pulls in fractions and decimal; only the probit fit reads it
        verify = ["verify-theorem", "--config", write_json(tmp_path / "c.json", GAUSS_EXACT),
                  "--mc", "2000", "--out", str(tmp_path / "v.json")]
        fit = ["fit", "--points", write(tmp_path / "p.csv", POINTS),
               "--transform", "probit", "--out", str(tmp_path / "f.json")]
        heavy = {"statistics", "decimal", "fractions"}
        code = (f"import sys, spurious_lens.cli as cli; v = cli.main({verify!r}); "
                f"loaded = sorted({heavy!r} & set(sys.modules)); "
                f"print(v, loaded, cli.main({fit!r}), 'statistics' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 [] 0 True"
        assert read_json(tmp_path / "f.json")["transform"] == "probit"
