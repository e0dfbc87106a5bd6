import re
from pathlib import Path

from adaseries import checks, cli, harness

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    """The fenced python block under "## Library sketch" runs as written."""
    section = README.read_text().split("## Library sketch", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(code, f"{README}:library-sketch", "exec"), {})


def command_line_section():
    return README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_command_line_flags_are_cli_options():
    """Every --flag the "Command line" section names is an option of some subcommand."""
    _, commands, _ = cli._build_parser()
    options = {flag for sub in commands.values() for flag in sub._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", command_line_section()))
    assert named and not named - options, sorted(named - options)


def test_command_line_commands_are_the_subcommands():
    """The "Command line" section names every subcommand, and only subcommands."""
    _, commands, _ = cli._build_parser()
    named = set(re.findall(r"\badaseries ([a-z]+)\b", command_line_section()))
    assert named == set(commands), sorted(named ^ set(commands))


def test_command_line_ini_example_is_a_valid_config(tmp_path):
    """The section's INI example passes the CLI's config reader."""
    (example,) = re.findall(r"```ini\n(.*?)```", command_line_section(), re.S)
    path = tmp_path / "example.ini"
    path.write_text(example)
    _, _, keys = cli._build_parser()
    assert cli._read_config(str(path), keys)


def test_batches_bullet_states_the_batch_budget():
    """The "Batches" bullet's B, K at n = 1000 and first n of K = 1 follow harness.BATCH_POINTS."""
    bullet = README.read_text().split("- **Batches.**", 1)[1].split("\n- **", 1)[0]
    text = " ".join(bullet.split())
    (budget,) = re.findall(r"B = `harness\.BATCH_POINTS` = (\d+)\b", text)
    (k_1000,) = re.findall(r"K = (\d+) at n = 1000\b", text)
    (one_from,) = re.findall(r"K = 1 from n = (\d+)\b", text)
    assert int(budget) == harness.BATCH_POINTS
    assert int(k_1000) == max(1, harness.BATCH_POINTS // 1000)
    assert harness.BATCH_POINTS // int(one_from) == 1 < harness.BATCH_POINTS // (int(one_from) - 1)


def test_check_paragraph_states_the_check_sizes():
    """The `check` paragraph's audit, variance and basis sizes follow the checks constants."""
    paragraph = command_line_section().split("`check` runs every check", 1)[1].split("\n\n", 1)[0]
    text = " ".join(paragraph.split())
    ((reps, n),) = re.findall(r"(\d+) simulated replications at n = (\d+)\b", text)
    (fuzz_exp,) = re.findall(r"10(\S) random tables", text)
    ((var_reps, var_n),) = re.findall(r"variances of (\d+) replications at n = (\d+)\b", text)
    (dims,) = re.findall(r"up to index (\d+)\b", text)
    assert (int(reps), int(n)) == (checks.LEMMA_REPS, checks.LEMMA_N)
    assert 10 ** int(fuzz_exp.translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789"))) \
        == checks.LEMMA_FUZZ_CASES
    assert (int(var_reps), int(var_n)) == (checks.VARIANCE_REPS, checks.VARIANCE_N)
    assert int(dims) == checks.BASIS_DIMS
