"""Every CLI output's bits against the committed table; see output_digests.py.

A failure names the command and what moved. When a change means to move
bits, regenerate the table with `PYTHONPATH=src python tests/output_digests.py`.
"""

import copy

import pytest

import output_digests as od

TABLE = od.load_table()
SAME_MACHINE = TABLE["fingerprint"] == od.fingerprint()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("digests")
    od.prepare_work(work)
    return work


def test_table_holds_every_command_of_the_matrix():
    recorded = {label: (entry["kind"], entry["argv"]) for label, entry in TABLE["commands"].items()}
    assert recorded == {label: (kind, argv) for label, kind, argv in od.MATRIX}


@pytest.mark.parametrize("label, kind, argv", od.MATRIX, ids=[label for label, *_ in od.MATRIX])
def test_cli_output_matches_its_recorded_digest(work, label, kind, argv):
    problems, how = od.compare_entry(TABLE["commands"][label],
                                     od.run_command(label, kind, argv, work), SAME_MACHINE)
    print(f"{label}: {how}")
    assert not problems, f"{label} ({how}): {'; '.join(problems)}"


def test_another_machine_compares_exit_codes_errors_and_numbers():
    run = TABLE["commands"]["run_glm0_gd"]
    refusal = TABLE["commands"]["run_net_rate_one"]
    assert od.compare_entry(run, copy.deepcopy(run), bitwise=False) == (
        [], "fingerprint differs: exit code and first stderr line exactly, "
            "numbers through perfbench checks.compare('run')")
    # Other hashes alone do not fail the comparison across machines ...
    moved = copy.deepcopy(run)
    moved["sha256"]["stdout"] = "0" * 64
    assert od.compare_entry(run, moved, bitwise=False)[0] == []
    assert od.compare_entry(run, moved, bitwise=True)[0] == ["stdout moved"]
    # ... but a number beyond perfbench's trajectory tolerance does,
    moved["digest"]["trajectory"]["sample"]["0"][2] *= 1.0 + 1e-6  # the first loss
    problems, _ = od.compare_entry(run, moved, bitwise=False)
    assert len(problems) == 1 and "trajectory.csv: trajectory deviates by" in problems[0]
    # and so do an exit code and a first stderr line.
    other = copy.deepcopy(refusal)
    other["stderr_first_line"] = "parameter error: something else"
    assert od.compare_entry(refusal, other, bitwise=False)[0] == [
        "stderr starts 'parameter error: something else', expected "
        f"{refusal['stderr_first_line']!r}"]
    other["exit"] = 3
    assert od.compare_entry(refusal, other, bitwise=False)[0][0] == "exit code 3, expected 2"
