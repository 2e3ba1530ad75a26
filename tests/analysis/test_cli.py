"""Unit tests for the CLI entry points."""

import io
import re
import sys
from pathlib import Path

import pytest

from repro import cli


@pytest.fixture
def script_file(tmp_path):
    def write(content):
        path = tmp_path / "script.sh"
        path.write_text(content)
        return str(path)

    return write


def run_tool(main, argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeCli:
    def test_unsafe_script_exits_nonzero(self, script_file, capsys):
        path = script_file('rm -rf /\n')
        code, out, _ = run_tool(cli.main_analyze, [path], capsys)
        assert code == 1
        assert "dangerous-deletion" in out

    def test_safe_script_exits_zero(self, script_file, capsys):
        path = script_file("echo hello\n")
        code, out, _ = run_tool(cli.main_analyze, [path], capsys)
        assert code == 0

    def test_errors_only_filter(self, script_file, capsys):
        path = script_file("mkdir /opt/x\n")
        code, out, _ = run_tool(cli.main_analyze, [path, "--errors-only"], capsys)
        assert "idempotence" not in out

    def test_platforms_flag(self, script_file, capsys):
        path = script_file("sed -i s/a/b/ f\n")
        code, out, _ = run_tool(
            cli.main_analyze, [path, "--platforms", "macos"], capsys
        )
        assert "platform-flag" in out

    def test_lint_merge(self, script_file, capsys):
        path = script_file("rm $X\n")
        code, out, _ = run_tool(cli.main_analyze, [path, "--lint"], capsys)
        assert "SC2086" in out

    def test_races_on_by_default(self, script_file, capsys):
        path = script_file("cmd > f &\ngrep x f\n")
        code, out, _ = run_tool(cli.main_analyze, [path], capsys)
        assert "race-read-write" in out
        assert "race-missing-wait" in out

    def test_no_races_toggle(self, script_file, capsys):
        path = script_file("cmd > f &\ngrep x f\n")
        code, out, _ = run_tool(cli.main_analyze, [path, "--no-races"], capsys)
        assert "race-" not in out


class TestLintCli:
    def test_reports_codes(self, script_file, capsys):
        path = script_file('rm -rf "$D"/*\n')
        code, out, _ = run_tool(cli.main_lint, [path], capsys)
        assert code == 1
        assert "SC2115" in out

    def test_clean(self, script_file, capsys):
        path = script_file('printf %s hi\n')
        code, out, _ = run_tool(cli.main_lint, [path], capsys)
        assert code == 0


class TestTypeofCli:
    def test_named_type(self, capsys):
        code, out, _ = run_tool(cli.main_typeof, ["url"], capsys)
        assert code == 0
        assert "://" in out

    def test_command_signature(self, capsys):
        code, out, _ = run_tool(cli.main_typeof, ["sed", "s/^/0x/"], capsys)
        assert code == 0
        assert "∀α" in out and "0xα" in out

    def test_unknown(self, capsys):
        code, out, err = run_tool(cli.main_typeof, ["frobnicate"], capsys)
        assert code == 1
        assert "known named types" in err


class TestMineCli:
    def test_mine_rm(self, capsys):
        code, out, _ = run_tool(cli.main_mine, ["rm"], capsys)
        assert code == 0
        assert "exit 0" in out and "delete" in out


class TestVerifyCli:
    def test_reject(self, script_file, capsys):
        path = script_file("rm -rf /home/user/mine/x\n")
        code, out, _ = run_tool(
            cli.main_verify, [path, "--no-RW", "~/mine"], capsys
        )
        assert code == 1
        assert "REJECT" in out

    def test_allow(self, script_file, capsys):
        path = script_file("mkdir -p /opt/sw\n")
        code, out, _ = run_tool(
            cli.main_verify, [path, "--no-RW", "~/mine"], capsys
        )
        assert code == 0
        assert "ALLOW" in out


class TestDispatcher:
    def test_usage_on_unknown(self, capsys):
        assert cli.main(["bogus"]) == 2

    def test_dispatch(self, script_file, capsys):
        path = script_file("echo hi\n")
        assert cli.main(["analyze", path]) == 0


class TestScriptEntries:
    def test_documented_commands_have_script_entries(self):
        root = Path(__file__).resolve().parents[2]
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        section = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        entries = dict(
            re.findall(r'^(repro-[\w-]+) = "repro\.cli:(\w+)"$', section, re.M)
        )
        readme = (root / "README.md").read_text(encoding="utf-8")
        # repro-dev.pth is the README's editable-install trick, not a command
        documented = set(re.findall(r"\brepro-[a-z]+\b", readme)) - {"repro-dev"}
        assert "repro-optimize" in entries
        assert documented <= set(entries)
        for function in entries.values():
            assert callable(getattr(cli, function))


class TestServerFallback:
    """``--server`` with nothing listening: one notice, one counted
    fallback, and exactly the inline run's exit code and stdout."""

    ROOT = Path(__file__).resolve().parents[2]

    @pytest.mark.parametrize("main", [cli.main_analyze, cli.main_optimize])
    @pytest.mark.parametrize(
        "target", ["examples/scripts/log_fanout.sh", "examples/scripts"]
    )
    def test_fallback_matches_inline(self, main, target, tmp_path, capsys):
        from repro.server import reset_breakers

        reset_breakers()
        argv = [str(self.ROOT / target), "--no-cache", "--jobs", "1"]
        inline_code, inline_out, _ = run_tool(main, argv, capsys)
        socket = str(tmp_path / "nobody-listens.sock")
        code, out, err = run_tool(
            main, argv + ["--server", "--socket", socket, "--stats"], capsys
        )
        assert code == inline_code
        assert out == inline_out
        notices = [line for line in err.splitlines() if line.endswith(" inline")]
        assert len(notices) == 1, err
        assert re.search(r"^  server\.client\.inline_fallback \.+ 1$", err, re.M), err
