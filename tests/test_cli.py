import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from starshift import cli, codes, rigidity, windows
from starshift.cli import main


@pytest.fixture
def c8_file(tmp_path):
    path = tmp_path / "c8.code"
    path.write_text(codes.render_generator_file(codes.hamming8_code()))
    return str(path)


@pytest.fixture
def e2_file(tmp_path):
    path = tmp_path / "e2.code"
    path.write_text("11\n")
    return str(path)


DATA = Path(__file__).parent / "data"


def _strip_millis(obj):
    if isinstance(obj, dict):
        return {k: _strip_millis(v) for k, v in obj.items() if k != "millis"}
    if isinstance(obj, list):
        return [_strip_millis(v) for v in obj]
    return obj


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestInspect:
    def test_selfdual_code_text(self, capsys, c8_file):
        assert main(["inspect", c8_file]) == 0
        out = capsys.readouterr().out
        assert "length: 8" in out
        assert "dim: 4" in out
        assert "weight class: doubly-even" in out
        assert "self-dual: yes" in out
        assert "contains all-ones: yes" in out
        assert "integrally non-degenerate: yes" in out

    def test_degenerate_code_reports_its_kernel_witness(self, capsys, e2_file):
        assert main(["inspect", e2_file]) == 0
        out = capsys.readouterr().out
        assert "integrally non-degenerate: no, kernel witness (1,-1)" in out

    def test_json_payload(self, capsys, c8_file):
        rc, data = run_json(capsys, ["inspect", c8_file, "--json"])
        assert rc == 0
        assert data["schema_version"] == 1
        assert data["dim"] == 4
        assert data["self_dual"] is True
        assert data["kernel_witness"] is None
        assert len(data["generators"]) == 4

    def test_json_kernel_witness(self, capsys, e2_file):
        rc, data = run_json(capsys, ["inspect", e2_file, "--json"])
        assert rc == 0
        assert data["integrally_nondegenerate"] is False
        assert data["kernel_witness"] == [1, -1]

    def test_nondegeneracy_above_the_enumeration_guard(self, capsys, tmp_path):
        c = codes.hamming8_code()
        for _ in range(6):
            c = codes.direct_sum(c, codes.hamming8_code())
        assert (c.length, c.dim) == (56, 28)
        path = tmp_path / "c8x7.code"
        path.write_text(codes.render_generator_file(c))
        rc, data = run_json(capsys, ["inspect", str(path), "--json"])
        assert rc == 0
        assert data["integrally_nondegenerate"] is True
        assert data["kernel_witness"] is None

    def test_weight_class_above_the_enumeration_guard(self, capsys, tmp_path):
        path = tmp_path / "even26.code"
        path.write_text(codes.render_generator_file(codes.even_weight_code(26)))
        rc, data = run_json(capsys, ["inspect", str(path), "--json"])
        assert rc == 0
        assert data["dim"] == 25
        assert data["weight_class"] == "even"

    def test_missing_file(self, capsys):
        assert main(["inspect", "/no/such/file"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_ragged_file(self, capsys, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("11110000\n001111\n")
        assert main(["inspect", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_invalid_characters(self, capsys, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("11x1\n")
        assert main(["inspect", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err


class TestDual:
    def test_selfdual_round_trip(self, capsys, c8_file):
        assert main(["dual", c8_file]) == 0
        out = capsys.readouterr().out
        parsed = codes.parse_generator_file(out)
        assert parsed == codes.hamming8_code()

    def test_json(self, capsys, e2_file):
        rc, data = run_json(capsys, ["dual", e2_file, "--json"])
        assert rc == 0
        assert data["dim"] == 1
        assert data["generators"] == ["11"]


class TestCheckPipeline:
    def sample_to_file(self, capsys, c8_file, tmp_path, seed=0):
        path = tmp_path / "config.json"
        assert main(["sample", c8_file, "--box", "2", "--seed", str(seed), "--json", "-o", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_sampled_solution_is_valid(self, capsys, c8_file, tmp_path):
        config = self.sample_to_file(capsys, c8_file, tmp_path)
        assert main(["check", c8_file, str(config)]) == 0
        assert capsys.readouterr().out.strip() == "VALID"

    def test_corrupted_solution_is_invalid(self, capsys, c8_file, tmp_path):
        config = self.sample_to_file(capsys, c8_file, tmp_path)
        data = json.loads(config.read_text())
        # site index 1 lies in the forward stencil of the box's anchor,
        # so flipping it breaks a constraint
        values = list(data["values"])
        values[1] = "0" if values[1] == "1" else "1"
        data["values"] = "".join(values)
        config.write_text(json.dumps(data))
        assert main(["check", c8_file, str(config)]) == 1
        assert capsys.readouterr().out.strip() == "INVALID"

    def test_json_report(self, capsys, c8_file, tmp_path):
        config = self.sample_to_file(capsys, c8_file, tmp_path)
        rc, data = run_json(capsys, ["check", c8_file, str(config), "--json"])
        assert rc == 0
        assert data["valid"] is True
        assert data["constraint_rank"] == 4

    def test_planar_round_trip(self, capsys, e2_file, tmp_path):
        # 150^2 = 22500 sites, above the default site guard
        path = tmp_path / "planar.json"
        guard = ["--max-sites", "22500"]
        argv = ["sample", e2_file, "--box", "150", "--seed", "7", "--json", "-o", str(path)]
        assert main(argv + guard) == 0
        assert main(["check", e2_file, str(path)] + guard) == 0
        assert capsys.readouterr().out.strip() == "VALID"
        data = json.loads(path.read_text())
        values = list(data["values"])
        k = 75 * 150 + 75
        values[k] = "0" if values[k] == "1" else "1"
        data["values"] = "".join(values)
        path.write_text(json.dumps(data))
        assert main(["check", e2_file, str(path)] + guard) == 1
        assert capsys.readouterr().out.strip() == "INVALID"

    @pytest.mark.parametrize(
        "body, field",
        [
            ("{not json", None),
            ('{"box": {"lower": [0, 0]}, "values": "0000"}', "upper"),
            ('{"box": {"lower": [0, 0], "upper": [2, 2]}}', "values"),
            ('[{"box": {"lower": [0, 0], "upper": [2, 2]}, "values": "0000"}]', "object"),
            ('{"box": {"lower": [0, 0], "upper": [2, "a"]}, "values": "0000"}', "upper"),
            ('{"box": {"lower": 5, "upper": [2, 2]}, "values": "0000"}', "lower"),
        ],
        ids=["not-json", "no-upper", "no-values", "top-level-list", "upper-not-int", "lower-not-list"],
    )
    def test_malformed_json(self, capsys, e2_file, tmp_path, body, field):
        path = tmp_path / "broken.json"
        path.write_text(body)
        assert main(["check", e2_file, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field is None or field in err

    def test_over_nested_json_is_a_usage_error(self, capsys, e2_file, tmp_path):
        # the decoder's RecursionError is a RuntimeError, the verification-failure exit
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["check", e2_file, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: configuration JSON is nested too deeply"]


class TestConstruct:
    def test_reference_dimension_text(self, capsys):
        assert main(["construct", "-d", "8"]) == 0
        out = capsys.readouterr().out
        assert "dimension: 8" in out
        assert "code (dim 4):" in out
        assert "product code (dim 7):" in out
        # generators print in canonical row-reduced form
        assert "  00001111" in out
        printed = [line.strip() for line in out.splitlines() if line.startswith("  ")]
        assert codes.parse_generator_file("\n".join(printed[:4])) == codes.hamming8_code()

    def test_padded_dimension_json(self, capsys):
        rc, data = run_json(capsys, ["construct", "-d", "10", "--json"])
        assert rc == 0
        assert data["code"]["dim"] == 6
        assert data["product_code"]["dim"] == 9

    def test_unsupported_dimension(self, capsys):
        assert main(["construct", "-d", "7"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_giant_dimension_exits_3_without_allocating(self):
        # the child caps its own address space, so a missing guard ends in
        # a MemoryError rather than straining the machine
        script = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20)); "
            "from starshift.cli import main; raise SystemExit(main())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "construct", "-d", str(10**9)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: code pair of dimension {10**9} has {10**9 * (2 * 10**9 - 5)} generator bits, "
            f"guard is {rigidity.MAX_PAIR_BITS}\n"
        )

    def test_memory_error_exits_3(self, capsys, monkeypatch):
        def exhausted(d):
            raise MemoryError

        monkeypatch.setattr(rigidity, "construct_system", exhausted)
        assert main(["construct", "-d", "8"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    @pytest.mark.parametrize("argv", [["construct", "-d", "8"], ["verify", "-d", "8"]])
    def test_invariant_failure_is_a_verification_failure(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(rigidity, "_invariant_failures", lambda system: ["planted"])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "planted" in err
        assert "Traceback" not in err


class TestVerify:
    def test_reference_dimension_passes(self, capsys):
        assert main(["verify", "-d", "8", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out
        assert "FAIL" not in out.replace("RESULT: PASS", "")
        assert "premises:star_closure" in out
        assert "dynamics:involution_on_samples" in out
        assert "non_affine_witness" in out

    def test_json_report(self, capsys):
        rc, data = run_json(capsys, ["verify", "-d", "8", "--samples", "5", "--json"])
        assert rc == 0
        assert data["schema_version"] == 1
        assert data["passed"] is True
        assert data["system"]["d"] == 8
        assert all("name" in c and "passed" in c for c in data["checks"])

    def test_unsupported_dimension(self, capsys):
        assert main(["verify", "-d", "6"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--box", "1"], ["--samples", "0"], ["--samples", "-2"]], ids=" ".join
    )
    def test_usage_error_exits_2(self, capsys, tmp_path, flags):
        # a box side below 2 or a sample count below 1 is a usage error,
        # not a verification that fails over no triples
        path = tmp_path / "report.json"
        assert main(["verify", "-d", "8", *flags, "-o", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not path.exists()

    def test_site_guard(self, capsys, tmp_path):
        # [0, 3)^8 has 6,561 sites; the guard applies before any check runs
        path = tmp_path / "report.json"
        argv = ["verify", "-d", "8", "--box", "3", "--samples", "10", "-o", str(path)]
        assert main(argv + ["--max-sites", "6560"]) == 3
        assert "error:" in capsys.readouterr().err
        assert not path.exists()
        assert main(argv + ["--max-sites", "6561"]) == 0
        assert path.exists()

    def test_sampled_site_guard(self, capsys, tmp_path):
        # 2,558 triples of 6,561 sites pass 2^24 sampled sites
        path = tmp_path / "report.json"
        argv = ["verify", "-d", "8", "--box", "3", "--samples", "2558", "-o", str(path)]
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("d, box", [(8, 2), (12, 2), (8, 3)], ids=["d8b2", "d12b2", "d8b3"])
    def test_matches_the_golden_report(self, capsys, d, box):
        # a pinned report catches a change to any verdict or witness,
        # which two runs of the same code cannot
        argv = ["verify", "-d", str(d), "--box", str(box), "--samples", "100", "--seed", "3",
                "--json"]
        assert main(argv) == 0
        text = json.dumps(_strip_millis(json.loads(capsys.readouterr().out)), indent=2) + "\n"
        assert text.encode() == (DATA / f"verify_d{d}_box{box}_seed3.json").read_bytes()

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["inspect", "{c8}", "--json"], "inspect_hamming8.json"),
            (["dual", "{c8}", "--json"], "dual_hamming8.json"),
            (["construct", "-d", "8", "--json"], "construct_d8.json"),
            (["entropy", "{c8}", "--box", "3", "--json"], "entropy_hamming8_box3.json"),
            (["mixing-witness", "{c8}", "--n", "3,-1,4,1,-5,9,2,-6", "--json"],
             "mixing_witness_hamming8.json"),
            (["sample", "{c8}", "--box", "3", "--seed", "3", "--json"],
             "sample_hamming8_box3_seed3.json"),
            # the configuration checked is the sample golden above
            (["check", "{c8}", "{data}/sample_hamming8_box3_seed3.json", "--json"],
             "check_hamming8_box3_seed3.json"),
        ],
        ids=["inspect", "dual", "construct", "entropy", "mixing-witness", "sample", "check"],
    )
    def test_code_command_matches_its_golden(self, capsys, c8_file, argv, golden):
        # these reports carry no timing, so stdout is compared byte for byte
        assert main([a.format(c8=c8_file, data=DATA) for a in argv]) == 0
        assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()

    def test_seeded_json_reports_identical_modulo_timing(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            rc = main(
                ["verify", "-d", "8", "--samples", "10", "--seed", "3", "--json", "-o", str(p)]
            )
            assert rc == 0
        capsys.readouterr()
        a, b = (_strip_millis(json.loads(p.read_text())) for p in paths)
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestEntropy:
    def test_even_weight_profile(self, capsys, e2_file):
        rc, data = run_json(capsys, ["entropy", e2_file, "--box", "3", "--json"])
        assert rc == 0
        assert data["sizes"] == [2, 3]
        assert data["ratios"] == ["3/4", "5/9"]
        assert data["verdict"] == "zero-entropy"

    def test_text_output(self, capsys, e2_file):
        assert main(["entropy", e2_file, "--box", "2"]) == 0
        out = capsys.readouterr().out
        assert "N=2: log2 count 3 over 4 sites = 3/4" in out
        assert "verdict: zero-entropy" in out

    def test_huge_box_refused_without_allocating(self, e2_file):
        # a memory cap turns any allocation of the 10^12 sizes into a
        # MemoryError traceback; the guard must refuse before that
        script = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from starshift.cli import main; raise SystemExit(main())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "entropy", e2_file, "--box", str(10**12)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: box has")
        assert "Traceback" not in proc.stderr

    def test_box_over_the_guard_builds_no_space(self, capsys, monkeypatch, e2_file):
        def no_build(*args, **kwargs):
            raise AssertionError("built a window space")

        monkeypatch.setattr(windows, "build_window_space", no_build)
        # 142^2 = 20,164 sites, just over the default guard of 20,000
        assert main(["entropy", e2_file, "--box", "142"]) == 3
        assert "box has 20164 sites, guard is 20000" in capsys.readouterr().err


class TestMixingWitness:
    def test_unit_vector_witness(self, capsys, c8_file):
        assert main(["mixing-witness", c8_file, "--n", "1,0,0,0,0,0,0,0"]) == 0
        out = capsys.readouterr().out
        assert "witness codeword 11110000 with support sum 1" in out

    def test_json(self, capsys, c8_file):
        rc, data = run_json(
            capsys, ["mixing-witness", c8_file, "--n", "2,3,-5,7,11,-13,17,19", "--json"]
        )
        assert rc == 0
        assert data["degenerate"] is False
        assert data["support_sum"] != 0
        w = codes.parse_generator_file(data["witness"])
        assert codes.is_subcode(w, codes.hamming8_code())

    def test_witness_above_the_enumeration_guard(self, capsys, tmp_path):
        path = tmp_path / "full26.code"
        path.write_text(codes.render_generator_file(codes.full_code(26)))
        n = ",".join(["0"] * 25 + ["4"])
        rc, data = run_json(capsys, ["mixing-witness", str(path), "--n", n, "--json"])
        assert rc == 0
        assert data["witness"] == "0" * 25 + "1"
        assert data["support_sum"] == 4

    def test_degenerate_code(self, capsys, e2_file):
        assert main(["mixing-witness", e2_file, "--n", "3,5"]) == 1
        out = capsys.readouterr().out
        assert "kernel witness (1, -1)" in out

    def test_degenerate_code_json(self, capsys, e2_file):
        rc, data = run_json(capsys, ["mixing-witness", e2_file, "--n", "3,5", "--json"])
        assert rc == 1
        assert data["degenerate"] is True
        assert data["kernel_witness"] == [1, -1]

    def test_length_mismatch(self, capsys, e2_file):
        assert main(["mixing-witness", e2_file, "--n", "1,2,3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_vector(self, capsys, e2_file):
        assert main(["mixing-witness", e2_file, "--n", "0,0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unparseable_vector(self, capsys, e2_file):
        assert main(["mixing-witness", e2_file, "--n", "1,x"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSample:
    def test_deterministic_for_a_seed(self, capsys, c8_file):
        assert main(["sample", c8_file, "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["sample", c8_file, "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert set(first.strip()) <= {"0", "1"}
        assert len(first.strip()) == 256

    def test_seeds_vary(self, capsys, c8_file):
        outputs = set()
        for seed in range(5):
            assert main(["sample", c8_file, "--seed", str(seed)]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) > 1

    def test_json_metadata(self, capsys, c8_file):
        rc, data = run_json(capsys, ["sample", c8_file, "--seed", "2", "--json"])
        assert rc == 0
        assert data["seed"] == 2
        assert data["log2_count"] == 252
        assert len(data["values"]) == 256

    def test_site_guard(self, capsys, c8_file):
        assert main(["sample", c8_file, "--box", "4"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_guard_override_flag_accepted(self, capsys, e2_file):
        # 150^2 = 22500 sites trips the default guard; the override
        # admits it
        assert main(["sample", e2_file, "--box", "150"]) == 3
        capsys.readouterr()
        assert main(["sample", e2_file, "--box", "150", "--max-sites", "23000"]) == 0
        capsys.readouterr()


class TestSiteGuard:
    @pytest.mark.parametrize(
        "argv",
        [["sample", "--box", "2"], ["entropy", "--box", "2"], ["entropy", "--box", "9" * 4000]],
        ids=["sample", "entropy", "entropy-4000-digit-box"],
    )
    def test_giant_site_count_exits_3(self, capsys, tmp_path, argv):
        # 2^15000 sites, and (10^4000)^15000, print past Python's
        # 4,300-digit limit on int to str conversion
        path = tmp_path / "rep.code"
        path.write_text("1" * 15_000 + "\n")
        assert main([argv[0], str(path), *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: box has at least ")
        assert captured.out == ""

    def test_verify_refuses_the_box_before_construction(self, capsys, monkeypatch):
        def no_construct(d):
            raise AssertionError("constructed the code pair")

        monkeypatch.setattr(rigidity, "construct_system", no_construct)
        assert main(["verify", "-d", "40", "--box", "2"]) == 3
        assert capsys.readouterr().err == "error: box has at least 32768 sites, guard is 20000\n"

    def test_verify_giant_dimension_refused_without_allocating(self):
        # under a 1 GB address-space cap, building the 10^9-coordinate
        # code pair ends in a MemoryError traceback
        script = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from starshift.cli import main; raise SystemExit(main())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "verify", "-d", str(10**9)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: box has at least")
        assert "Traceback" not in proc.stderr

    def test_verify_refuses_a_dimension_below_8(self, capsys):
        # the box check passes on no axes at all, so the dimension is refused
        # by the construction, not by an empty box
        for d in (0, -1):
            assert main(["verify", "-d", str(d)]) == 2
            assert f"dimension 8 and above, got {d}" in capsys.readouterr().err

    def test_verify_usage_errors_still_exit_2(self, capsys):
        for argv in (["-d", "7"], ["-d", "40", "--box", "1"]):
            assert main(["verify", *argv]) == 2
            assert "error:" in capsys.readouterr().err


def _every_command(c8_file, e2_file, tmp_path):
    config = tmp_path / "config.json"
    assert main(["sample", c8_file, "--json", "-o", str(config)]) == 0
    return [
        ["inspect", c8_file],
        ["dual", c8_file],
        ["check", c8_file, str(config)],
        ["construct", "-d", "8"],
        ["verify", "-d", "8", "--samples", "5"],
        ["entropy", e2_file],
        ["mixing-witness", c8_file, "--n", "1,0,0,0,0,0,0,0"],
        ["sample", c8_file],
    ]


class TestOutputFile:
    @pytest.fixture(autouse=True)
    def frozen_clock(self, monkeypatch):
        # verify's per-check timings then read 0.0 ms on every run
        monkeypatch.setattr(rigidity, "time", SimpleNamespace(perf_counter=lambda: 0.0))

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_file_holds_the_stdout_bytes(self, capsys, tmp_path, c8_file, e2_file, mode):
        commands = _every_command(c8_file, e2_file, tmp_path)
        assert len({argv[0] for argv in commands}) == 8
        for argv in commands:
            assert main(argv + mode) == 0
            stdout = capsys.readouterr().out
            assert stdout.endswith("\n") and not stdout.endswith("\n\n")
            path = tmp_path / f"{argv[0]}.out"
            assert main(argv + mode + ["-o", str(path)]) == 0
            assert capsys.readouterr().out == ""
            assert path.read_bytes() == stdout.encode()
            if mode:
                assert json.loads(stdout)["schema_version"] == 1

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_missing_directory_exits_2(self, capsys, tmp_path, c8_file, e2_file, mode):
        missing = tmp_path / "missing"
        for argv in _every_command(c8_file, e2_file, tmp_path):
            assert main(argv + mode + ["-o", str(missing / "report")]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and "Traceback" not in captured.err
            assert captured.out == ""
            assert not missing.exists()


class TestModuleEntry:
    def test_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "starshift", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "inspect" in proc.stdout
        assert "verify" in proc.stdout

    def test_construct_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "starshift", "construct", "-d", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "dimension: 8" in proc.stdout

    def test_unknown_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "starshift", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


# a valid argument list for each command, and its int options
_VALID = {
    "inspect": (["c.code"], []),
    "dual": (["c.code"], []),
    "check": (["c.code", "w.json"], ["--max-sites"]),
    "construct": (["-d", "8"], ["-d"]),
    "verify": (["-d", "8"], ["-d", "--box", "--samples", "--seed", "--max-sites"]),
    "entropy": (["c.code"], ["--box", "--max-sites"]),
    "mixing-witness": (["c.code", "--n", "1"], []),
    "sample": (["c.code"], ["--box", "--seed", "--max-sites"]),
}
_TAKES_MAX_SITES = {"check", "verify", "entropy", "sample"}


def _refusals():
    """Argument lists the parser refuses or answers with help, each (id, argv)."""
    yield "help", ["--help"]
    yield "none", []
    yield "unknown-command", ["frobnicate"]
    yield "option-before-command", ["--json", "construct", "-d", "8"]
    for name, (valid, ints) in _VALID.items():
        yield f"{name}-help", [name, "--help"]
        yield f"{name}-h-after-arguments", [name, *valid, "-h"]
        yield f"{name}-missing-required", [name]
        for opt in ints:
            yield f"{name}-{opt.lstrip('-')}-not-an-int", [name, *valid, opt, "x"]
        yield f"{name}-unknown-option", [name, *valid, "--bogus"]
        yield f"{name}-leftover-positional", [name, *valid, "extra"]
        yield f"{name}-leftover-after-a-bad-int", [name, *valid, "extra", *ints[-1:], "x"]
        # an abbreviated flag with a value it refuses
        yield f"{name}-abbreviated-json", [name, *valid, "--js=1"]
        yield f"{name}-missing-output-path", [name, *valid, "-o"]
        yield f"{name}-max-sites", [name, *valid, "--max-sites", "x"]
    yield "mixing-witness-missing-n", ["mixing-witness", "c.code"]
    yield "verify-abbreviated-samples", ["verify", "-d", "8", "--sam", "x"]
    yield "verify-ambiguous-abbreviation", ["verify", "-d", "8", "--s", "5"]
    yield "sample-abbreviated-seed", ["sample", "c.code", "--se", "x"]


_REFUSALS = list(_refusals())


class TestParserParity:
    """``main`` parses as the full ``build_parser()`` tree does, to the byte."""

    @staticmethod
    def _outcome(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [a for _, a in _REFUSALS], ids=[i for i, _ in _REFUSALS])
    def test_refusals_and_help_match_the_full_parser(self, capsys, argv):
        expected = self._outcome(capsys, cli.build_parser().parse_args, argv)
        assert self._outcome(capsys, main, argv) == expected
        assert expected[0] in (0, 2)
        assert expected[1] or expected[2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-d", "8", "--sam", "5", "--se", "2", "--js"],
            ["verify", "-d9", "--box=3", "--max", "7", "-o", "r.json"],
            ["sample", "c.code", "--bo", "3", "--seed", "-4"],
            ["check", "c.code", "w.json", "--max-s", "10"],
            ["mixing-witness", "c.code", "--n=-1,2"],
            ["entropy", "--box", "4", "c.code"],
        ],
    )
    def test_accepted_arguments_match_the_full_parser(self, argv):
        expected = vars(cli.build_parser().parse_args(argv))
        assert expected.pop("command") == argv[0]
        assert vars(cli._parse_args(argv)) == expected

    @pytest.mark.parametrize("name", sorted(_VALID))
    def test_max_sites_belongs_to_the_commands_that_build_spaces(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, *_VALID[name][0], "--max-sites", "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if name in _TAKES_MAX_SITES:
            assert f"usage: starshift {name} " in err
            assert "argument --max-sites: invalid int value: 'x'" in err
        else:
            assert err.startswith("usage: starshift [-h]")
            assert err.endswith("error: unrecognized arguments: --max-sites x\n")

    def test_a_call_builds_only_its_command_parser(self, capsys, monkeypatch):
        def no_full_parser():
            raise AssertionError("built the full parser")

        monkeypatch.setattr(cli, "build_parser", no_full_parser)
        assert main(["verify", "-d", "8", "--samples", "5"]) == 0
        assert capsys.readouterr().out.endswith("RESULT: PASS (20 checks, d=8)\n")
