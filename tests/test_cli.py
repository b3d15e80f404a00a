import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fanforge
from fanforge.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_in_subprocess(argv, env=None, timeout=None, address_space=None):
    """`python -m fanforge ARGV` in a fresh interpreter, with `env` added to
    the environment and, if given, its address space capped in bytes."""
    src = str(Path(fanforge.__file__).parents[1])

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "fanforge", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, **(env or {})},
        timeout=timeout,
        preexec_fn=cap if address_space else None,
    )


def verify_in_subprocess(state_path):
    """`python -m fanforge verify --state PATH` in a fresh interpreter."""
    return cli_in_subprocess(["verify", "--state", str(state_path)])


class TestBuild:
    def test_build_reports_counts(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        code, stdout, _ = run(["build", "--depth", "1", "--jumps", "4", "--out", str(out)], capsys)
        assert code == 0
        assert "stages: 2, copies: 13" in stdout
        doc = json.loads(out.read_text())
        assert doc["schema"] == "fanforge-state-v1"

    def test_build_depth_zero(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code, stdout, _ = run(["build", "--depth", "0", "--jumps", "1", "--out", str(out)], capsys)
        assert code == 0
        assert "copies: 1" in stdout

    @pytest.mark.parametrize(
        "depth,jumps,message",
        [("-1", "4", "depth must be >= 0"), ("1", "1", "depth 1 needs at least 2 jumps")],
    )
    def test_depth_and_jump_count_refused(self, tmp_path, capsys, depth, jumps, message):
        out = tmp_path / "x.json"
        code, _, stderr = run(["build", "--depth", depth, "--jumps", jumps, "--out", str(out)], capsys)
        assert (code, stderr) == (2, f"error: {message}\n")
        assert not out.exists()

    def test_rebuild_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["build", "--depth", "2", "--jumps", "8", "--out", str(a)], capsys)
        run(["build", "--depth", "2", "--jumps", "8", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_too_coarse_reports_suggestion(self, tmp_path, capsys):
        code, _, stderr = run(
            ["build", "--depth", "3", "--jumps", "4", "--out", str(tmp_path / "x.json")], capsys
        )
        assert code == 2
        assert "TruncationTooCoarse" in stderr
        assert "suggested jump count: >= 12" in stderr

    def test_too_coarse_at_a_huge_depth_is_refused_at_once(self, tmp_path):
        # refused at stage 2; the suggestion 3 * 2^99999 is neither searched
        # for over 2^100000 columns nor written past the int-to-str limit
        out = tmp_path / "x.json"
        argv = ["build", "--depth", "100000", "--jumps", "3", "--out", str(out)]
        proc = cli_in_subprocess(argv, timeout=60, address_space=512 * 2**20)
        assert proc.returncode == 2 and not out.exists()
        assert proc.stderr.startswith("error: TruncationTooCoarse: truncation too coarse at stage 2")
        assert proc.stderr.endswith("(suggested jump count: >= 3 * 2^99999)\n")

    def test_state_whose_reports_cannot_be_written_is_never_built(self, tmp_path):
        # at 640 digits 2^N alone allows N <= 2126, but depth 1 puts heights over
        # a den of about 2^(2N): N = 1064 gives 2,130 bits, and its coverage report
        # would not be written; N = 1061, the most that depth 1 takes, runs through
        env = {"PYTHONINTMAXSTRDIGITS": "640"}
        out = tmp_path / "s.json"
        proc = cli_in_subprocess(["build", "--depth", "1", "--jumps", "1064", "--out", str(out)], env)
        assert proc.returncode == 2 and not out.exists()
        assert proc.stderr.startswith("error: InvalidParameter: 1064 jumps at depth 1 put heights over a 2130-bit")
        commands = [
            ["build", "--depth", "1", "--jumps", "1061", "--out", str(out)],
            ["verify", "--state", str(out)],
            *(["trace", "--state", str(out), "--c", c] for c in ("1/3", "1")),
            ["render", "--state", str(out), "--figure", "earring", "--out", str(tmp_path / "e.svg")],
        ]
        for argv in commands:
            proc = cli_in_subprocess(argv, env)
            assert (proc.returncode, proc.stderr) == (0, ""), argv

    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.json"
        code, _, stderr = run(["build", "--depth", "1", "--jumps", "4", "--out", str(out)], capsys)
        assert code == 2
        assert stderr.startswith("error: ") and str(out) in stderr

    def test_jump_count_whose_reports_cannot_be_written_exits_2(self, tmp_path, capsys, int_text_limit):
        # its coverage report would hold 2^14285, past the default 4,300-digit int-to-str limit
        int_text_limit(4300)
        out = tmp_path / "s.json"
        code, _, stderr = run(["build", "--depth", "0", "--jumps", "14285", "--out", str(out)], capsys)
        assert code == 2 and not out.exists()
        assert stderr.startswith("error: InvalidParameter: 14285 jumps exceed the limit of 14284")


@pytest.fixture(scope="module")
def state_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("states") / "state-2-16.json"
    assert main(["build", "--depth", "2", "--jumps", "16", "--out", str(path)]) == 0
    return path


class TestVerify:
    def test_full_suite_exit_zero(self, state_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, stdout, _ = run(
            ["verify", "--state", str(state_file), "--out", str(report)], capsys
        )
        assert code == 0
        assert "result: PASS" in stdout
        doc = json.loads(report.read_text())
        assert doc["schema"] == "fanforge-report-v1" and doc["passed"]

    def test_mutated_state_fails_with_witness(self, state_file, tmp_path, capsys):
        doc = json.loads(state_file.read_text())
        rect = doc["stages"][2]["rects"][0]
        a_num = int(rect["a"].split("/")[0])
        rect["b"] = f"{a_num * 3 + 2}/{int(rect['a'].split('/')[1]) * 3}"  # height 2/3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, _ = run(
            ["verify", "--state", str(bad), "--checks", "conditions-i-ii"], capsys
        )
        assert code == 1
        assert "witness" in stdout

    def test_level_selector_skips_beyond_depth(self, state_file, capsys):
        code, stdout, _ = run(
            ["verify", "--state", str(state_file), "--checks", "coverage=5"], capsys
        )
        assert code == 0
        assert "SKIPPED" in stdout

    @pytest.mark.parametrize("selector", ["disjointness=5", "null-sequence=0", "coverage=-1", "coverage=x"])
    def test_bad_level_selector_exits_2_before_any_check(self, state_file, capsys, selector):
        argv = ["verify", "--state", str(state_file), "--checks", f"conditions-i-ii,{selector}"]
        code, stdout, stderr = run(argv, capsys)
        assert code == 2
        assert f"InvalidParameter: check selector {selector!r}" in stderr
        assert "Traceback" not in stderr and stdout == ""

    def test_empty_check_list_exits_2(self, state_file, capsys):
        code, stdout, stderr = run(["verify", "--state", str(state_file), "--checks", ""], capsys)
        assert code == 2
        assert "InvalidParameter: no check selected" in stderr
        assert "Traceback" not in stderr and stdout == ""

    # The epsilon-connectivity cloud and thresholds take no run parameter:
    # verify refuses each former sampling flag as an unrecognized argument.
    def refused_flag(self, state_file, flag, value):
        proc = cli_in_subprocess(["verify", "--state", str(state_file), flag, value])
        assert proc.returncode == 2
        assert f"unrecognized arguments: {flag} {value}" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_meaningless_epsilon_exits_2_before_any_check(self, state_file, value):
        self.refused_flag(state_file, "--epsilon", value)

    def test_negative_fibers_exits_2(self, state_file):
        self.refused_flag(state_file, "--fibers", "-2")

    def test_grid_depth_below_state_depth_exits_2(self, state_file):
        self.refused_flag(state_file, "--grid-depth", "1")

    def test_corrupt_state_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.json"
        bad.write_text('{"schema": "fanforge-state-v1", "depth": 1}')
        code, _, stderr = run(["verify", "--state", str(bad)], capsys)
        assert code == 2
        assert "StateSchemaError" in stderr

    def test_out_in_missing_directory_exits_2(self, state_file, tmp_path, capsys):
        # exit status 1 means the checks failed; a report that cannot be written is an error
        out = tmp_path / "missing" / "report.json"
        code, _, stderr = run(
            ["verify", "--state", str(state_file), "--checks", "conditions-i-ii", "--out", str(out)], capsys
        )
        assert code == 2
        assert stderr.startswith("error: ") and str(out) in stderr

    def test_depth_one_passes(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        run(["build", "--depth", "1", "--jumps", "4", "--out", str(path)], capsys)
        code, stdout, _ = run(["verify", "--state", str(path)], capsys)
        assert code == 0
        assert "[SKIPPED] null-sequence (stages)  reason=needs depth >= 2" in stdout

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.update(depth="1"),
            lambda doc: doc.update(jumps="4"),
            lambda doc: doc["stages"][0].update(rects=None),
            lambda doc: doc["stages"][1]["rects"][0].update(a=0.5),
            lambda doc: doc["stages"][1]["rects"][0].update(a="-1e0"),
        ],
        ids=["depth-str", "jumps-str", "rects-null", "bound-float", "bound-exponent"],
    )
    def test_mistyped_state_exits_2_without_traceback(self, state_file, tmp_path, mutate):
        doc = json.loads(state_file.read_text())
        mutate(doc)
        bad = tmp_path / "mistyped.json"
        bad.write_text(json.dumps(doc))
        proc = verify_in_subprocess(bad)
        assert proc.returncode == 2
        assert "StateSchemaError" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_state_whose_reports_cannot_be_written_exits_2(self, tmp_path, capsys, int_text_limit):
        int_text_limit(4300)
        doc = {"schema": "fanforge-state-v1", "depth": 0, "jumps": 100000, "strict": True,
               "stages": [{"n": 0, "rects": [{"address": "", "a": "0", "b": "1"}]}]}
        path = tmp_path / "many-jumps.json"
        path.write_text(json.dumps(doc))
        code, stdout, stderr = run(["verify", "--state", str(path), "--checks", "coverage"], capsys)
        assert code == 2 and stdout == ""
        assert "StateSchemaError: 100000 jumps exceed the limit of 14284" in stderr
        assert f"(at {path}.jumps)" in stderr

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_state_exits_2_without_traceback(self, tmp_path, kind):
        path = tmp_path / "absent.json" if kind == "missing" else tmp_path
        proc = verify_in_subprocess(path)
        assert proc.returncode == 2
        assert "StateSchemaError" in proc.stderr
        assert str(path) in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "content, message",
        [(b"[" * 200_000 + b"]" * 200_000, "JSON nested too deeply"), (b"\xff\xfe", "not UTF-8")],
        ids=["nested-200000-deep", "not-utf8"],
    )
    def test_unparseable_state_exits_2_with_a_schema_error(self, tmp_path, content, message):
        path = tmp_path / "unparseable.json"
        path.write_bytes(content)
        proc = verify_in_subprocess(path)
        assert proc.returncode == 2
        assert f"StateSchemaError: {message}" in proc.stderr
        assert str(path) in proc.stderr
        assert "Traceback" not in proc.stderr


class TestTrace:
    def test_known_column(self, tmp_path, capsys):
        path = tmp_path / "s14.json"
        run(["build", "--depth", "1", "--jumps", "4", "--out", str(path)], capsys)
        code, stdout, _ = run(
            ["trace", "--state", str(path), "--c", "1/3", "--lo", "-1", "--hi", "2"], capsys
        )
        assert code == 0
        for expected in ("-17/32", "-1/32", "13/16", "461/512", "509/512", "47/32", "63/32"):
            assert expected in stdout

    def test_column_zero_stage_zero(self, tmp_path, capsys):
        path = tmp_path / "s04.json"
        run(["build", "--depth", "0", "--jumps", "4", "--out", str(path)], capsys)
        code, stdout, _ = run(
            ["trace", "--state", str(path), "--c", "0/1", "--lo", "0", "--hi", "1"], capsys
        )
        assert code == 0
        assert "0/1" in stdout

    def test_not_in_cantor(self, state_file, capsys):
        code, _, stderr = run(["trace", "--state", str(state_file), "--c", "1/2"], capsys)
        assert code == 2
        assert "NotInCantor" in stderr

    @pytest.mark.parametrize("text", ["1e0", "0.25", "1_000", "1/0"])
    def test_non_pq_column_rejected(self, state_file, capsys, text):
        code, _, stderr = run(["trace", "--state", str(state_file), "--c", text], capsys)
        assert code == 2
        assert "not a rational" in stderr

    def test_jump_column(self, state_file, capsys):
        code, _, stderr = run(["trace", "--state", str(state_file), "--c", "1/4"], capsys)
        assert code == 2
        assert "JumpHit" in stderr

    def test_inverted_window_exits_2(self, state_file, capsys):
        code, stdout, stderr = run(
            ["trace", "--state", str(state_file), "--c", "0/1", "--lo", "1", "--hi", "0"], capsys
        )
        assert code == 2
        assert "InvertedWindow" in stderr and "Traceback" not in stderr
        assert stdout == ""

    @pytest.mark.parametrize(
        "option, value, code",
        [("--c", "-1/2", 2), ("--lo", "-1/2", 0), ("--lo", "-3", 0), ("--hi", "-1/32", 0), ("--hi", "-5/2", 2)],
    )
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_negative_rational_value_reads_as_its_equals_form(self, state_file, capsys, option, value, code, json_flag):
        args = ["trace", "--state", str(state_file), *json_flag]
        if option != "--c":
            args += ["--c", "0/1"]
        spaced = run([*args, option, value], capsys)
        assert spaced == run([*args, f"{option}={value}"], capsys)
        assert spaced[0] == code and "expected one argument" not in spaced[2]

    def test_json_output(self, state_file, capsys):
        code, stdout, _ = run(
            ["trace", "--state", str(state_file), "--c", "0/1", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["c"] == "0/1"


class TestRender:
    def test_tiling_figure(self, state_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run(["render", "--state", str(state_file), "--figure", "tiling"], capsys)
        assert code == 0
        assert Path("figure-tiling-K2-N16.svg").exists()

    def test_repeat_render_identical(self, state_file, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(["render", "--state", str(state_file), "--figure", "fan", "--out", str(a)], capsys)
        run(["render", "--state", str(state_file), "--figure", "fan", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_earring_figure(self, state_file, tmp_path, capsys):
        out = tmp_path / "e.svg"
        code, _, _ = run(
            ["render", "--state", str(state_file), "--figure", "earring", "--out", str(out)], capsys
        )
        assert code == 0
        assert out.read_text().startswith("<?xml")

    def test_out_in_missing_directory_exits_2(self, state_file, tmp_path, capsys):
        out = tmp_path / "missing" / "e.svg"
        code, _, stderr = run(
            ["render", "--state", str(state_file), "--figure", "earring", "--out", str(out)], capsys
        )
        assert code == 2
        assert stderr.startswith("error: ") and str(out) in stderr

    def test_unknown_figure_rejected(self, state_file, capsys):
        with pytest.raises(SystemExit):
            main(["render", "--state", str(state_file), "--figure", "sphere"])


EXACT_CHECKS = "conditions-i-ii,partial-tiling,disjointness,coverage,condition-v,max-gap"


def modules_loaded(commands):
    """The names in `sys.modules` of a fresh interpreter before and after
    it runs `commands` through `cli.main`, each command exiting 0."""
    script = (
        "import json, sys\n"
        "from fanforge.cli import main\n"
        "before = sorted(sys.modules)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if main(argv) != 0:\n"
        "        sys.exit(f'nonzero exit: {argv}')\n"
        "print(json.dumps([before, sorted(sys.modules)]))\n"
    )
    src = str(Path(fanforge.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.splitlines()[-1])
    return set(before), set(after)


def packages_loaded(commands):
    """The top-level packages outside the standard library that running
    `commands` loads, sorted."""
    before, after = modules_loaded(commands)

    def packages(names):
        return {name.partition(".")[0] for name in names} - set(sys.stdlib_module_names)

    return sorted(packages(after) - packages(before))


class TestArrayImports:
    def test_no_command_loads_a_package_outside_the_standard_library(self, tmp_path):
        state = str(tmp_path / "state.json")
        commands = [
            ["build", "--depth", "2", "--jumps", "16", "--out", state],
            ["verify", "--state", state, "--checks", EXACT_CHECKS],
            ["verify", "--state", state],
            *(
                ["render", "--state", state, "--figure", kind, "--out", str(tmp_path / f"{kind}.svg")]
                for kind in ("tiling", "fan", "earring")
            ),
        ]
        assert packages_loaded(commands) == []


class TestCommandImports:
    def test_build_and_render_load_only_what_they_run(self, tmp_path):
        state = str(tmp_path / "state.json")
        build = ["build", "--depth", "2", "--jumps", "16", "--out", state]
        _, after = modules_loaded([build])
        assert after.isdisjoint({"fanforge.verify", "fanforge.spaceset", "fanforge.render", "fanforge.decomp"})
        assert after.isdisjoint({"fanforge.query", "fanforge.connectivity", "dataclasses", "inspect"})

        def render(kind):
            return ["render", "--state", state, "--figure", kind, "--out", str(tmp_path / f"{kind}.svg")]

        # the tiling and fan figures read the float boundary alone: no earring, no point query
        _, after = modules_loaded([render("tiling"), render("fan")])
        assert "fanforge.render" in after
        assert "fanforge.floats" in after and "fanforge.spaceset" not in after
        assert after.isdisjoint({"fanforge.decomp", "fanforge.query", "fanforge.verify", "numpy"})
        assert after.isdisjoint({"dataclasses", "inspect"})
        _, after = modules_loaded([render("earring")])
        assert "fanforge.decomp" in after
        assert after.isdisjoint({"fanforge.query", "fanforge.verify", "numpy", "dataclasses", "inspect"})

    def test_exact_verify_loads_neither_spaceset_nor_numpy(self, tmp_path):
        state = str(tmp_path / "state.json")
        build = ["build", "--depth", "2", "--jumps", "16", "--out", state]
        _, after = modules_loaded([build, ["verify", "--state", state, "--checks", EXACT_CHECKS]])
        assert "fanforge.verify" in after
        assert after.isdisjoint({"fanforge.spaceset", "fanforge.connectivity", "fanforge.query", "numpy"})
        assert after.isdisjoint({"dataclasses", "inspect"})

    def test_null_sequence_loads_the_float_boundary_alone(self, tmp_path):
        state = str(tmp_path / "state.json")
        build = ["build", "--depth", "2", "--jumps", "16", "--out", state]
        _, after = modules_loaded([build, ["verify", "--state", state, "--checks", "null-sequence"]])
        assert "fanforge.floats" in after
        assert after.isdisjoint({"fanforge.spaceset", "fanforge.connectivity", "fanforge.query"})

    def test_trace_loads_the_query_module_alone(self, tmp_path):
        state = str(tmp_path / "state.json")
        build = ["build", "--depth", "2", "--jumps", "16", "--out", state]
        _, after = modules_loaded([build, ["trace", "--state", state, "--c", "0"]])
        assert "fanforge.query" in after
        assert after.isdisjoint({"fanforge.verify", "fanforge.spaceset", "fanforge.render", "fanforge.decomp"})

    def test_default_verify_does_not_load_numpy_ma(self, tmp_path):
        # nor numpy itself: epsilon-connectivity runs on the standard library
        state = str(tmp_path / "state.json")
        build = ["build", "--depth", "2", "--jumps", "16", "--out", state]
        _, after = modules_loaded([build, ["verify", "--state", state]])
        assert {"fanforge.spaceset", "fanforge.connectivity"} <= after
        assert after.isdisjoint({"numpy", "numpy.ma", "dataclasses", "inspect"})
