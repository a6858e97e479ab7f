"""Command-line interface: subcommand payloads, exit codes, determinism."""

import hashlib
import json

import pytest

from kq import fibers, moduli
from kq.cli import run
from kq.linalg import RatMatrix
from kq.moduli import QuiverRep, embed, random_gauge, random_point, scramble
from kq.quiver import vertex_key


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv, "--json")
    return code, json.loads(out)


def in_vertex_key_order(reports):
    keys = [(vertex_key(tuple(r["lam"])), vertex_key(tuple(r["mu"]))) for r in reports]
    return keys == sorted(keys)


def test_lr(capsys):
    code, report = invoke_json(capsys, "lr", "--lam", "1,0", "--gam", "2,1", "--mu", "2,2")
    assert code == 0 and report["results"]["lr"] == 1


def test_ssyt_count(capsys):
    code, report = invoke_json(
        capsys, "ssyt-count", "--inner", "1,0", "--outer", "2,2", "--max-entry", "3"
    )
    assert code == 0 and report["results"]["count"] == 8


def test_gamma(capsys):
    code, report = invoke_json(capsys, "gamma", "--lam", "1,0", "--mu", "3,2")
    assert code == 0 and report["results"]["gamma"] == [[2, 2], [3, 1]]


def test_gl_dim(capsys):
    code, report = invoke_json(capsys, "gl-dim", "--gam", "2,2", "--n", "5")
    assert code == 0 and report["results"]["dim"] == 50


def test_hom_dim_worked_example(capsys):
    code, report = invoke_json(capsys, "hom-dim", "--n", "5", "--lam", "1,0", "--mu", "3,2")
    assert code == 0
    assert report["results"] == {"gamma": [[2, 2], [3, 1]], "dims": [50, 105], "total": 155}


def test_quiver(capsys):
    code, report = invoke_json(capsys, "quiver", "--n", "4")
    assert code == 0
    assert len(report["results"]["vertices"]) == 6
    assert len(report["results"]["arrows"]) == 24
    assert report["results"]["dims"] == [1, 2, 3, 1, 2, 1]


def test_relations_square_pair(capsys):
    code, report = invoke_json(capsys, "relations", "--n", "5", "--lam", "2,0", "--mu", "3,1")
    assert code == 0
    (family,) = report["results"]["families"]
    assert family["family"] == "square"
    assert family["coefficients"] == [2, -3, 1]
    assert family["count"] == 25


def test_relations_full_sweep_n5(capsys):
    code, report = invoke_json(capsys, "relations", "--n", "5")
    assert code == 0
    fams = report["results"]["families"]
    assert len(fams) == 12
    grouped = {}
    for f in fams:
        grouped.setdefault((f["family"], tuple(f["coefficients"])), []).append(tuple(f["lam"]))
    assert sorted(grouped[("ff", (1, -1))]) == [(0, 0), (1, 0), (1, 1)]
    assert sorted(grouped[("gg", (1, -1))]) == [(2, 0), (3, 0), (3, 1)]
    assert sorted(grouped[("diag", (1, 1))]) == [(0, 0), (1, 1), (2, 2)]
    assert sorted(grouped[("square", (1, -2, 1))]) == [(1, 0), (2, 1)]
    assert grouped[("square", (2, -3, 1))] == [(2, 0)]


def test_fg_matrix(capsys):
    code, report = invoke_json(capsys, "fg-matrix", "--k", "2", "--x", "1/2,-3")
    assert code == 0
    assert report["results"]["f"]["entries"] == [["1/2", "0"], ["-3", "1/2"], ["0", "-3"]]
    assert report["results"]["g"]["entries"] == [["3", "1/2"]]
    code, report = invoke_json(capsys, "fg-matrix", "--k", "1", "--x", "1,0")
    assert code == 0 and report["results"]["g"] is None


def test_verify_kernel_single_pair(capsys):
    code, report = invoke_json(capsys, "verify-kernel", "--n", "4", "--lam", "0,0", "--mu", "1,1")
    assert code == 0
    r = report["results"]
    assert (r["paths"], r["ideal_dim"], r["quotient_dim"], r["hom_dim"], r["ok"]) == (
        16,
        10,
        6,
        6,
        True,
    )


def test_verify_kernel_sweep(capsys):
    code, report = invoke_json(capsys, "verify-kernel", "--n", "4", "--max-degree", "3")
    assert code == 0 and report["ok"]
    assert all(r["ok"] for r in report["results"]["pairs"])
    assert in_vertex_key_order(report["results"]["pairs"])


def test_verify_surjectivity_single_pair(capsys):
    code, report = invoke_json(capsys, "verify-surjectivity", "--n", "4", "--lam", "0,0", "--mu", "1,1")
    assert code == 0
    assert report["results"]["rank"] == report["results"]["hom_dim"] == 6
    assert report["inputs"] == {"lam": "0,0", "max_degree": 3, "mu": "1,1", "n": 4}  # no samples, no seed
    assert "samples" not in report["results"]


def test_roundtrip_command(capsys):
    code, report = invoke_json(capsys, "roundtrip", "--n", "4", "--trials", "3", "--seed", "7")
    assert code == 0
    assert report["results"] == {"trials": 3, "failures": [], "ok": True}
    assert report["inputs"]["seed"] == "7"


def test_roundtrip_sees_a_wrong_gauge(monkeypatch, capsys):
    """rep_match compares the input with the recovered point's embedding
    under the recovered gauge: with the gauge block at (1, 0) doubled the
    point still matches, the representation does not, and the command
    exits 1."""
    original = moduli.reconstruct

    def doubled(rep):
        point, gauge = original(rep)
        b = gauge.blocks[(1, 0)]
        twice = RatMatrix([[2 * x for x in b.row(i)] for i in range(b.rows)])
        return point, moduli.GaugeElement(rep.n, {**gauge.blocks, (1, 0): twice})

    monkeypatch.setattr(moduli, "reconstruct", doubled)
    code, report = invoke_json(capsys, "roundtrip", "--n", "5", "--trials", "1")
    assert code == 1
    assert report["results"]["failures"] == [{"trial": 0, "ok": False, "point_match": True, "rep_match": False}]


def test_embed_check_reconstruct_files(tmp_path, capsys):
    y = random_point(4, "clifile")
    point_file = tmp_path / "point.json"
    point_file.write_text(json.dumps(y.to_json()))
    code, report = invoke_json(capsys, "embed", "--point", str(point_file))
    assert code == 0
    rep_json = report["results"]["rep"]

    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps(rep_json))
    code, report = invoke_json(capsys, "check", "--rep", str(rep_file))
    assert code == 0 and report["ok"]
    assert report["results"]["stability"]["ok"] and report["results"]["violations"] == []

    code, report = invoke_json(capsys, "reconstruct", "--rep", str(rep_file))
    assert code == 0
    assert report["results"]["point"] == y.to_json()

    # break one entry: check reports the violation and exits 1
    rep = QuiverRep.from_json(rep_json)
    a = rep.quiver.arrow((1, 0), 1, 2)
    m = rep.matrices[a]
    rows = [list(m.row(i)) for i in range(m.rows)]
    rows[0][0] += 1
    mats = dict(rep.matrices)
    mats[a] = RatMatrix(rows)
    bad = QuiverRep(4, mats)
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(bad.to_json()))
    code, report = invoke_json(capsys, "check", "--rep", str(bad_file))
    assert code == 1 and not report["ok"]
    assert report["results"]["violations"]

    code, report = invoke_json(capsys, "reconstruct", "--rep", str(bad_file))
    assert code == 1 and report["results"]["error"] == "RelationsViolated"


def test_malformed_inputs_exit_2(tmp_path, capsys):
    code, _ = invoke(capsys, "lr", "--lam", "x", "--gam", "1", "--mu", "1")
    assert code == 2
    code, _ = invoke(capsys, "quiver", "--n", "3")
    assert code == 2
    code, _ = invoke(capsys, "check", "--rep", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = invoke(capsys, "check", "--rep", str(bad))
    assert code == 2
    code, _ = invoke(capsys, "relations", "--n", "4", "--lam", "0,0", "--mu", "3,3")
    assert code == 2
    for empty_sweep in (
        ("verify-kernel", "--n", "4", "--max-degree", "-1"),
        ("verify-surjectivity", "--n", "4", "--max-degree", "0"),
        ("roundtrip", "--n", "4", "--trials", "-1"),
    ):
        code, _ = invoke(capsys, *empty_sweep)
        assert code == 2, empty_sweep
    code, _ = invoke(capsys, "fg-matrix", "--k", "2", "--x", "1/0,1")
    assert code == 2
    # --threads is gone, --seed is only on roundtrip, the one command that
    # draws, and verify-surjectivity draws no sample
    for unknown in (
        ("roundtrip", "--n", "4", "--threads", "4"),
        ("verify-kernel", "--n", "4", "--seed", "1"),
        ("verify-surjectivity", "--n", "4", "--samples", "40"),
        ("verify-surjectivity", "--n", "4", "--seed", "0"),
    ):
        with pytest.raises(SystemExit) as exited:
            run(list(unknown))
        assert exited.value.code == 2, unknown
        assert f"unrecognized arguments: {' '.join(unknown[-2:])}" in capsys.readouterr().err
    for negative_n in (("gl-dim", "--gam", ","), ("hom-dim", "--lam", "0,0", "--mu", "1,1")):
        assert run([*negative_n, "--n", "-3"]) == 2, negative_n
        assert capsys.readouterr().err == "error: --n must be at least 0, got -3\n"
    rep_json = embed(random_point(4, "p")).to_json()
    arrows = rep_json["arrows"]
    zero_den = dict(arrows[0], matrix=dict(arrows[0]["matrix"], entries=[["1/0"], ["0"]]))
    for stray in (
        [zero_den] + arrows[1:],
        arrows + [dict(arrows[0], rho=99)],  # an arrow the quiver lacks
        arrows + [arrows[0]],  # two records for one arrow
    ):
        bad.write_text(json.dumps(dict(rep_json, arrows=stray)))
        code, _ = invoke(capsys, "check", "--rep", str(bad))
        assert code == 2, stray[-1]
    scrambled = scramble(embed(random_point(5, "intfields")), random_gauge(5, "intfields")).to_json()
    first = scrambled["arrows"][0]
    bad.write_text(json.dumps(scrambled))
    assert invoke(capsys, "check", "--rep", str(bad), "--json")[0] == 0
    for field in (
        {"n": 5.9},
        {"n": "5"},
        {"arrows": [dict(first, rho=1.7)] + scrambled["arrows"][1:]},
        {"arrows": [dict(first, rho=True)] + scrambled["arrows"][1:]},
        {"arrows": [dict(first, tail=[float(x) for x in first["tail"]], head=[float(x) for x in first["head"]])] + scrambled["arrows"][1:]},
        {"arrows": [dict(first, tail=first["tail"] + [0])] + scrambled["arrows"][1:]},
        {"arrows": [dict(first, matrix=dict(first["matrix"], rows=2.0))] + scrambled["arrows"][1:]},
        {"arrows": [dict(first, matrix=dict(first["matrix"], cols=True))] + scrambled["arrows"][1:]},
    ):
        bad.write_text(json.dumps(dict(scrambled, **field)))
        code, _ = invoke(capsys, "check", "--rep", str(bad), "--json")
        assert code == 2, field
    bad.write_text(json.dumps({"n": 400, "arrows": []}))  # refused by its record count
    code, _ = invoke(capsys, "check", "--rep", str(bad))
    assert code == 2
    point_json = random_point(4, "p").to_json()
    bad.write_text(json.dumps(dict(point_json, n=4.0)))
    code, _ = invoke(capsys, "embed", "--point", str(bad))
    assert code == 2
    point_json["matrix"][0][2] = "1/0"
    bad.write_text(json.dumps(point_json))
    code, _ = invoke(capsys, "embed", "--point", str(bad))
    assert code == 2


def test_not_contained_pair_gives_one_message(capsys):
    # (2,2) -> (3,1) is refused as given: untwisted it would have a negative part.
    for n, lam, mu, message in (("4", "2,0", "0,0", "(2,) is not strictly contained in ()"),
                                ("6", "2,2", "3,1", "(2, 2) is not strictly contained in (3, 1)")):
        lines = []
        for command in ("verify-kernel", "verify-surjectivity"):
            assert run([command, "--n", n, "--lam", lam, "--mu", mu]) == 2
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1] == f"error: {message}\n"
    assert run(["ssyt-count", "--inner", "2", "--outer", "1", "--max-entry", "3"]) == 2
    assert capsys.readouterr().err == "error: (2,) is not contained in (1,)\n"


def test_internal_value_error_is_not_malformed_input(monkeypatch, capsys):
    def broken(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr(fibers, "surjectivity_rank", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run(["verify-surjectivity", "--n", "4", "--lam", "0,0", "--mu", "1,1"])


def test_json_output_is_byte_identical(capsys):
    args = ("roundtrip", "--n", "4", "--trials", "2", "--seed", "99", "--json")
    code1, out1 = invoke(capsys, *args)
    code2, out2 = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_human_and_json_agree_on_verdict(capsys):
    code_h, out_h = invoke(capsys, "verify-kernel", "--n", "4", "--lam", "0,0", "--mu", "2,1")
    code_j, report = invoke_json(capsys, "verify-kernel", "--n", "4", "--lam", "0,0", "--mu", "2,1")
    assert code_h == code_j == 0
    assert "ok: true" in out_h
    assert report["ok"] is True
    assert report["inputs"] == {"lam": "0,0", "max_degree": 4, "mu": "2,1", "n": 4}  # no seed, no threads
    assert "elapsed_ms" in out_h and "elapsed_ms" not in json.dumps(report)


def test_human_output_has_one_ok_line(tmp_path, capsys):
    """The results' own ok is not printed again above the command's ok."""
    rep = scramble(embed(random_point(4, "one ok")), random_gauge(4, "one ok"))
    a = rep.quiver.arrow((1, 0), 1, 2)
    rows = [list(rep.matrices[a].row(i)) for i in range(rep.matrices[a].rows)]
    rows[0][0] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(QuiverRep(4, {**rep.matrices, a: RatMatrix(rows)}).to_json()))
    for argv in (
        ("verify-kernel", "--n", "4", "--lam", "0,0", "--mu", "1,1"),
        ("verify-kernel", "--n", "4", "--max-degree", "1"),
        ("verify-surjectivity", "--n", "4", "--lam", "0,0", "--mu", "1,1"),
        ("roundtrip", "--n", "4", "--trials", "1"),
        ("check", "--rep", str(bad)),
    ):
        code, out = invoke(capsys, *argv)
        ok_lines = [line for line in out.splitlines() if line.startswith("ok:")]
        assert ok_lines == [f"ok: {str(code == 0).lower()}"], argv


def test_relations_json_is_unchanged(capsys):
    """The relation JSON, arrow pairs written as right-to-left paths, is
    pinned byte for byte."""
    code, out = invoke(capsys, "relations", "--n", "5", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "adf055193974be5ee4b31e7de84d61c596ffe805414be3d477c779b1eab59fe6"


def test_verify_surjectivity_json_is_byte_identical(capsys):
    args = ("verify-surjectivity", "--n", "4", "--max-degree", "2", "--json")
    code1, out1 = invoke(capsys, *args)
    code2, out2 = invoke(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    assert all(r["status"] == "ok" for r in json.loads(out1)["results"]["pairs"])
    assert in_vertex_key_order(json.loads(out1)["results"]["pairs"])
