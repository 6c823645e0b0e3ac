import ast
import functools
import glob
import json
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

import berndenom
from berndenom import arith, denom
from berndenom.cli import PROFILE_FIELDS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestProfile:
    def test_profile_5(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "5")
        assert code == 0
        header, rows = parse_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["dd"] == "6"
        assert record["dn"] == "1"
        assert record["db"] == "6"
        assert record["ds"] == "12"
        assert record["dd_complement"] == "5"
        assert record["in_rad_set"] == "true"

    def test_profile_8_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "profile", "8")
        assert code == 0
        record = json.loads(out)
        assert record["dd"] == "3"
        assert record["rad_n1"] == "3"
        assert record["in_rad_set"] is True
        assert record["omega_plus"] == 1

    def test_profile_1(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "profile", "1")
        assert code == 0
        record = json.loads(out)
        assert record["dd"] == "1"
        assert record["dn"] == "2"
        assert record["db"] == "2"
        assert record["in_rad_set"] is False

    def test_beyond_the_sieve_cap(self, capsys):
        # primes up to n/2 would need a sieve past the 2**26 cap; isqrt(n) is 14142
        code, out, _ = run_cli(capsys, "profile", "200000000")
        assert code == 0
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["n"] == "200000000"

    def test_fields_are_the_csv_header(self, capsys):
        assert PROFILE_FIELDS == (
            "n", "dd", "dd_minus", "dd_plus", "dd_shared", "dd_coprime",
            "dd_complement", "dn", "db", "ds", "omega_plus", "rad_n", "rad_n1",
            "in_rad_set",
        )
        _, out, _ = run_cli(capsys, "profile", "8")
        assert tuple(parse_csv(out)[0]) == PROFILE_FIELDS

    def test_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "0"])
        assert exc.value.code == 2

    def test_past_the_sieve_cap_refused_at_once(self, capsys):
        # isqrt(n) is past the 2**26 sieve cap: refused before radical(n)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "profile", "100000000000000003")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err.startswith("error:") and "67108864" in err

    @pytest.mark.parametrize("n", [2**63 - 1, 2**63])
    def test_past_the_int64_range_refused_at_once(self, capsys, n):
        # n + 1 must stay below 2**63 for the support of dd(n + 1)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["profile", str(n)])
        assert time.perf_counter() - start < 2
        assert exc.value.code == 2
        assert "error: profile needs n + 1 < 2**63" in capsys.readouterr().err


class TestSeq:
    def test_dd_first_ten(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "dd", "1", "10")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "value"]
        assert [r[1] for r in rows] == ["1", "1", "2", "1", "6", "2", "6", "3", "10", "2"]

    def test_ds_from_zero(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "ds", "0", "9")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[1] for r in rows] == ["1", "2", "6", "4", "30", "12", "42", "24", "90", "20"]

    def test_db_k_needs_k(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "db_k", "--k", "2", "8", "8")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [["8", "3"]]
        with pytest.raises(SystemExit) as exc:
            main(["seq", "db_k", "8", "8"])
        assert exc.value.code == 2

    def test_k_only_valid_for_db_k(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "dd", "--k", "2", "1", "10"])
        assert exc.value.code == 2

    def test_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "nope", "1", "10"])
        assert exc.value.code == 2

    def test_index_below_domain_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "dd", "0", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("db_k", "8", "8"), "seq db_k requires --k"),
            (("dd", "--k", "2", "1", "10"), "--k applies only to db_k, not dd"),
            (("db", "-1", "2"), "db is defined from n = 0, got lo = -1"),
            (("dd", "0", "3"), "dd is defined from n = 1, got lo = 0"),
            (("dd", "5", "3"), "need lo <= hi, got 5 > 3"),
            # before the sieve is sized: this range would need one past its cap
            (("dd", "300000001", "300000000"), "need lo <= hi, got 300000001 > 300000000"),
        ],
    )
    def test_usage_error_messages(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["seq", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [("dd_plus", "1", "1000"), ("db_k", "1", "1000", "--k", "2")])
    def test_no_trial_division_where_no_complement_is_read(self, capsys, monkeypatch, argv):
        calls = []

        def counted(n):
            calls.append(n)
            return arith.radical(n)

        monkeypatch.setattr(denom, "radical", counted)
        code, _, _ = run_cli(capsys, "seq", *argv)
        assert code == 0 and calls == []

    def test_json_and_csv_carry_same_values(self, capsys):
        _, csv_out, _ = run_cli(capsys, "seq", "db", "0", "12")
        _, rows = parse_csv(csv_out)
        _, json_out, _ = run_cli(capsys, "--format", "json", "seq", "db", "0", "12")
        payload = json.loads(json_out)
        assert [(str(r["n"]), r["value"]) for r in payload["rows"]] == [tuple(r) for r in rows]

    def test_csv_streams_its_rows(self, monkeypatch):
        # 50,000 rows held as (n, value) tuples would take about 4 MiB more
        arith.shared_sieve(25_000)  # the cache is not what this measures
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                assert main(["seq", "omega_plus", "1", "50000"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3 << 20, peak


# 10**5000 + 7, spelled out without an int-to-str conversion
HUGE_VALUE = 10**5000 + 7
HUGE_TEXT = "1" + "0" * 4999 + "7"


@pytest.fixture
def default_str_digits_limit():
    """Restore Python's 4300-digit int-to-str limit around the test, where it exists."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.usefixtures("default_str_digits_limit")
class TestValuesBeyond4300Digits:
    @pytest.fixture(autouse=True)
    def huge_dd(self, monkeypatch):
        monkeypatch.setattr(denom, "sequence", lambda *args: iter([HUGE_VALUE]))

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "dd", "1", "1")
        assert code == 0
        assert out == "n,value\n1," + HUGE_TEXT + "\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "seq", "dd", "1", "1")
        assert code == 0
        assert json.loads(out)["rows"] == [{"n": 1, "value": HUGE_TEXT}]


class TestScan:
    def test_limit_1000(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--limit", "1000")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n"]
        got = [int(r[0]) for r in rows]
        expected = [n for n in range(1, 1001) if denom.omega_dd_plus(n) == 0]
        assert got == expected
        assert max(got) == 192
        assert "192" in err

    def test_json_matches_csv(self, capsys):
        _, csv_out, _ = run_cli(capsys, "scan", "--limit", "500")
        _, rows = parse_csv(csv_out)
        _, json_out, _ = run_cli(capsys, "--format", "json", "scan", "--limit", "500")
        payload = json.loads(json_out)
        assert payload["exceptional"] == [int(r[0]) for r in rows]
        assert payload["max_exceptional"] == 192
        assert payload["exceptional_count"] == len(rows)

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "scan", "--limit", "800")
        _, second, _ = run_cli(capsys, "scan", "--limit", "800")
        assert first == second

    def test_interrupted_resume_is_byte_identical(self, capsys, tmp_path):
        from berndenom.scanner import ScanConfig, checkpoint_resume, checkpoint_save, scan_omega_plus

        _, fresh, _ = run_cli(capsys, "scan", "--limit", "2000", "--chunk", "512")

        config = ScanConfig(1, 2000, 512)
        path = tmp_path / "scan.ckpt"
        checkpoint_resume(path, config)  # writes the header
        for lo, hi in list(config.chunk_ranges())[:2]:
            checkpoint_save(path, scan_omega_plus(lo, hi))

        code, resumed, _ = run_cli(
            capsys, "scan", "--limit", "2000", "--chunk", "512", "--checkpoint", str(path)
        )
        assert code == 0
        assert resumed == fresh

    @pytest.mark.parametrize("order", [[0, 2, 3], [1, 0, 2], [2]], ids=["gap", "swapped", "lone-later"])
    def test_checkpoint_out_of_grid_order_is_refused(self, capsys, tmp_path, monkeypatch, order):
        from berndenom import scanner

        argv = ("scan", "--limit", "2000", "--chunk", "400", "--checkpoint")
        full = tmp_path / "full.ckpt"
        assert run_cli(capsys, *argv, str(full))[0] == 0
        header, *records = full.read_bytes().splitlines(keepends=True)
        path = tmp_path / "scan.ckpt"
        path.write_bytes(header + b"".join(records[i] for i in order))
        written = path.read_bytes()

        def explode(*args, **kwargs):
            raise AssertionError("a refused checkpoint must stop the scan before any chunk")

        monkeypatch.setattr(scanner, "_scan_step", explode)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2 and out == "" and path.read_bytes() == written
        assert err.startswith("error: record [") and err.count("\n") == 1 and "chunk grid" in err

    def test_empty_checkpoint_warns_in_one_stable_line(self, capsys, tmp_path):
        _, fresh, summary = run_cli(capsys, "scan", "--limit", "1000")
        path = tmp_path / "empty.ckpt"
        path.write_text("")
        code, out, err = run_cli(capsys, "scan", "--limit", "1000", "--checkpoint", str(path))
        assert code == 0 and out == fresh
        assert err == f"warning: checkpoint {path} is empty; starting fresh\n" + summary

    def test_conflicting_checkpoint_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "scan.ckpt"
        code, _, _ = run_cli(capsys, "scan", "--limit", "1000", "--checkpoint", str(path))
        assert code == 0
        code, _, err = run_cli(capsys, "scan", "--limit", "1500", "--checkpoint", str(path))
        assert code == 2
        assert "different scan configuration" in err

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_checkpoint_fails_before_scanning(self, capsys, tmp_path, monkeypatch, where):
        from berndenom import scanner

        def explode(*args, **kwargs):
            raise AssertionError("an unwritable checkpoint must fail before any chunk")

        monkeypatch.setattr(scanner, "_scan_step", explode)
        path = tmp_path / "missing" / "scan.ckpt" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(capsys, "scan", "--limit", "5000", "--checkpoint", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(path) in err

    def test_two_threads_match_one(self, capsys, monkeypatch):
        # four steps of one chunk, so two worker threads share them
        from berndenom import scanner

        monkeypatch.setattr(scanner, "_step", lambda start: 100)
        code, out, err = run_cli(capsys, "scan", "--limit", "400", "--chunk", "100", "--threads", "2")
        assert code == 0
        assert run_cli(capsys, "scan", "--limit", "400", "--chunk", "100", "--threads", "1") == (0, out, err)

    def test_an_error_reads_the_same_on_any_thread_count(self, capsys, monkeypatch):
        # a re-cover past the sieve cap raises in the middle of a scan; with two threads
        # the second step fails on a pool thread, and is raised when the scan takes it
        import threading

        from berndenom import scanner

        real = scanner._scan_step

        def refused(step):
            if step[0] > 1:
                raise arith.SieveSizeError(f"covering n = {step[0]} at depth 129: refused")
            return real(step)

        monkeypatch.setattr(scanner, "_step", lambda start: 1000)
        monkeypatch.setattr(scanner, "_scan_step", refused)
        argv = ("scan", "--limit", "2000", "--chunk", "1000", "--threads")
        one = run_cli(capsys, *argv, "1")
        assert one == (2, "", "error: covering n = 1001 at depth 129: refused\n")
        threads = threading.active_count()
        assert run_cli(capsys, *argv, "2") == one
        assert threading.active_count() == threads  # the pool's threads were joined

    def test_json_and_checkpoint_show_the_default_chunk(self, capsys, tmp_path):
        # 2^20 up to a limit of 2^32, and past it limit / 4096 rounded up to a power of two
        path = tmp_path / "wide.ckpt"
        argv = ("--format", "json", "scan", "--limit", str(2**32 + 1), "--checkpoint", str(path))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["chunk_size"] == 2**21
        header, *records = path.read_text().splitlines()
        assert json.loads(header)["chunk_size"] == 2**21 and len(records) == 2049
        code, out, _ = run_cli(capsys, "--format", "json", "scan", "--limit", "5000")
        assert json.loads(out)["chunk_size"] == 2**20

    def test_refusal_states_the_sieve_cap(self, capsys):
        # the cover to one past the last limit accepted reads primes to 2**26 + 1
        code, out, err = run_cli(capsys, "scan", "--limit", "4503591037435905")
        assert code == 2 and out == ""
        assert err == "error: sieve limit 67108865 exceeds the cap of 67108864\n"

    def test_refused_scan_leaves_no_checkpoint(self, capsys, tmp_path):
        path = tmp_path / "refused.ckpt"
        code, out, err = run_cli(capsys, "scan", "--limit", "4503591037435905", "--checkpoint", str(path))
        assert code == 2 and out == "" and "67108864" in err
        assert not path.exists()


@pytest.mark.parametrize(
    "argv, bound",
    [
        (("seq", "dd", "1", "300000000"), 150000000),
        (("seq", "db_k", "1", "300000000", "--k", "2"), 150000000),
        (("radset", "--limit", "4503590903218177"), 67108865),
        (("sets", "--k", "1", "--limit", "4503591037435905"), 67108865),
    ],
    ids=["seq-dd", "seq-db_k", "radset", "sets"],
)
def test_range_commands_refuse_past_the_sieve_cap_at_once(argv, bound):
    # seq sieves to half its top index, 1.5e8 here; radset and sets sieve to their
    # cover's reach, one past the 2**26 cap at these limits. The refusal comes
    # before any row, where building rows up to the cap took minutes
    src = os.path.dirname(os.path.dirname(berndenom.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "berndenom", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: sieve limit {bound} exceeds the cap of 67108864\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_seq_dn_refuses_past_is_prime_bound_at_once(capsys, fmt):
    # dn(n) tests n + 1 by is_prime, which is exact only below this bound
    with pytest.raises(SystemExit) as exc:
        main(["--format", fmt, "seq", "dn", str(10**25), str(10**25)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "3317044064679887385961981" in captured.err


@pytest.mark.parametrize(
    "argv, built",
    [
        ("scan --limit 300000", [2_178]),
        ("seq dd 1 5000", [2_500]),
        ("seq omega_plus 1 300000", [150_000]),
        ("sets --k 2 --limit 300000", [1_541]),
        ("radset --limit 300000", [1_541]),
        ("verify --limit 10000 --oracle-limit 300", [10_001]),
        ("verify --limit 100 --oracle-limit 300", [151]),
        ("seq dn 1 1000", []),
    ],
)
def test_command_builds_one_sieve_to_its_bound(capsys, monkeypatch, argv, built):
    # half the top index read; for scan, sets and radset the reach of their
    # cover, here (2 cut + 66)^2 // (cut + 2), the bound of quotient cut + 1
    # for runs cut short by cut; for verify limit + 1, or half of
    # max(oracle_limit, 50) + 2 when its oracle tables reach further
    limits = []
    real_sieve = arith.sieve
    monkeypatch.setattr(arith, "_SHARED", None)
    monkeypatch.setattr(arith, "sieve", lambda limit: limits.append(limit) or real_sieve(limit))
    assert run_cli(capsys, *argv.split())[0] == 0
    assert limits == built


KILL_SCAN = ["scan", "--limit", "100000", "--chunk", "128"]  # 782 chunks
KILL_POINTS = 10


def records_in(path) -> int:
    """Records in a checkpoint: -1 before its header exists."""
    try:
        return path.read_bytes().count(b"\n") - 1
    except FileNotFoundError:
        return -1


def scan_process(path, **kwargs):
    src = os.path.dirname(os.path.dirname(berndenom.__file__))
    argv = [sys.executable, "-m", "berndenom", *KILL_SCAN, "--checkpoint", str(path)]
    return subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=src), **kwargs)


def killed_after(path, records: int) -> int:
    """SIGKILL a checkpointed scan once path holds records records (-1: at
    once, before the header); return how many it held then."""
    child = scan_process(path, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        while records >= 0 and child.poll() is None and records_in(path) < records:
            time.sleep(0.0005)
    finally:
        child.kill()  # SIGKILL, to this child alone; a no-op once it has exited
        child.wait()
    return records_in(path)


def test_sigkilled_scan_resumes_byte_identically(tmp_path):
    fresh_path = tmp_path / "fresh.ckpt"
    fresh = scan_process(fresh_path, stdout=subprocess.PIPE).communicate()[0]
    total = records_in(fresh_path)
    assert total == 782
    rng = random.Random(782)
    # before the header, seeded points among the records, and after the last
    targets = [-1, *sorted(rng.sample(range(total), KILL_POINTS - 2)), total]
    held = []
    for point, target in enumerate(targets):
        path = tmp_path / f"killed{point}.ckpt"
        held.append(killed_after(path, target))
        resumed = scan_process(path, stdout=subprocess.PIPE).communicate()[0]
        assert resumed == fresh, (target, held[-1])
        assert path.read_bytes() == fresh_path.read_bytes(), (target, held[-1])
    assert held[0] == -1 and held[-1] == total
    assert any(0 < h < total for h in held), held


def alive_in_group(pgid) -> bool:
    """Whether a process of group pgid still runs. A zombie counts as gone:
    it has exited and waits only for a reaper, which some containers' init
    never is. Without /proc, any member counts."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    if not os.path.isdir("/proc"):
        return True
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                state, _, group = fh.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue  # exited while listed
        if int(group) == pgid and state != "Z":
            return True
    return False


@pytest.mark.parametrize("interrupt", [False, True], ids=["sigkill-parent", "sigint-group"])
def test_stopped_threaded_scan_takes_its_workers_and_resumes(tmp_path, interrupt):
    # SIGKILL ends the process and its threads; SIGINT, as from a terminal,
    # reaches the whole group, where only the main thread may answer it
    src = os.path.dirname(os.path.dirname(berndenom.__file__))
    # 733 records: the scan cannot write them all before the signal lands
    argv = [sys.executable, "-m", "berndenom", "scan", "--limit", "3000000", "--chunk", "4096"]
    env = dict(os.environ, PYTHONPATH=src)
    fresh_path = tmp_path / "fresh.ckpt"
    fresh = subprocess.run(
        [*argv, "--threads", "1", "--checkpoint", str(fresh_path)],
        env=env, capture_output=True, check=True, timeout=60,
    ).stdout
    total = records_in(fresh_path)
    assert total == 733

    path = tmp_path / "stopped.ckpt"
    with open(tmp_path / "stderr", "wb") as err:  # a pipe would wait for the workers too
        child = subprocess.Popen(
            [*argv, "--threads", "2", "--checkpoint", str(path)],
            env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
    try:
        while child.poll() is None and records_in(path) < 3:
            time.sleep(0.0005)
        if interrupt:
            os.killpg(child.pid, signal.SIGINT)
        else:
            child.kill()
        child.wait(timeout=10)
        held = records_in(path)
        deadline = time.monotonic() + 1
        while alive_in_group(child.pid):
            assert time.monotonic() < deadline, "a scan worker outlived its parent by 1 s"
            time.sleep(0.01)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert 3 <= held < total
    if interrupt:  # the parent's traceback alone
        err = (tmp_path / "stderr").read_bytes()
        assert err.count(b"Traceback") == 1 and err.endswith(b"KeyboardInterrupt\n"), err

    resumed = subprocess.run(
        [*argv, "--threads", "2", "--checkpoint", str(path)],
        env=env, capture_output=True, check=True, timeout=60,
    ).stdout
    assert resumed == fresh
    assert path.read_bytes() == fresh_path.read_bytes()


SLOW_SCAN = """
import sys, time
from berndenom import scanner

real = scanner._scan_step


def slow(step):  # 200 steps of one chunk, 0.05 s each, on two threads: 5 s of work
    time.sleep(0.05)
    return real(step)


scanner._step = lambda start: 500
scanner._scan_step = slow
scanner.run_scan(100000, chunk_size=500, threads=2, checkpoint_path=sys.argv[1])
"""


def test_sigkilled_parent_ends_busy_workers_at_their_next_write(tmp_path):
    # the workers are threads of the scan's one process, so a SIGKILL ends
    # them with it, in the middle of a step, with nothing left in its group
    src = os.path.dirname(os.path.dirname(berndenom.__file__))
    path = tmp_path / "slow.ckpt"
    child = subprocess.Popen(
        [sys.executable, "-c", SLOW_SCAN, str(path)],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        while child.poll() is None and records_in(path) < 3:
            time.sleep(0.001)
        assert child.poll() is None, "the scan ended before it was killed"
        child.kill()
        child.wait(timeout=10)
        deadline = time.monotonic() + 1
        while alive_in_group(child.pid):
            assert time.monotonic() < deadline, "a busy scan worker outlived its parent by 1 s"
            time.sleep(0.01)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert 3 <= records_in(path) < 200


@pytest.mark.parametrize(
    "argv, head",
    [
        (["seq", "dd", "1", "100000"], b"n,value\n1,1\n"),
        (["scan", "--limit", "300000", "--chunk", "4096"], b""),
    ],
    ids=["seq-after-two-lines", "scan-before-any"],
)
def test_reader_closing_early_stops_without_a_traceback(argv, head):
    src = os.path.dirname(os.path.dirname(berndenom.__file__))
    with subprocess.Popen(
        [sys.executable, "-m", "berndenom", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        read = b"".join(child.stdout.readline() for _ in range(head.count(b"\n")))
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert read == head
    assert err == b""
    assert code == 141


class TestSets:
    def test_k1_members_and_flags(self, capsys):
        code, out, _ = run_cli(capsys, "sets", "--k", "1", "--limit", "100")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "next_prime"]
        assert [int(r[0]) for r in rows] == [1, 2, 4, 6, 10, 12, 28, 30, 36, 60]
        assert all(r[1] == "true" for r in rows)

    def test_k3_includes_392(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "sets", "--k", "3", "--limit", "400")
        assert code == 0
        payload = json.loads(out)
        assert 392 in payload["members"]
        assert 210 in payload["members"]
        assert "next_is_prime" not in payload

    def test_radset(self, capsys):
        code, out, _ = run_cli(capsys, "radset", "--limit", "100")
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(r[0]) for r in rows] == [3, 5, 8, 9, 11, 27, 29, 35, 59]


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--limit", "200", "--oracle-limit", "30")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows and all(r[1] == "pass" for r in rows)

    def test_injected_fault_fails_with_witness(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--limit", "200",
            "--oracle-limit", "30",
            "--inject-fault", "triple-product:42",
        )
        assert code == 1
        _, rows = parse_csv(out)
        failing = {r[0]: r for r in rows if r[1] == "fail"}
        assert set(failing) == {"triple-product"}
        assert failing["triple-product"][3] == "42"

    def test_unknown_fault_family_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--inject-fault", "no-such-family"])
        assert exc.value.code == 2

    def test_oracle_limit_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--oracle-limit", "2000"])
        assert exc.value.code == 2

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "verify", "--limit", "100", "--oracle-limit", "20"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert {f["family"] for f in payload["families"]} >= {"decomposition", "oracle-equivalence"}


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def probe(code, **env):
    """The words of the last stderr line of code run in a fresh interpreter.
    OPENBLAS_NUM_THREADS is unset unless env sets it: importing cli here set
    it in this process, and the probe must not inherit the pin it checks."""
    src = os.path.dirname(os.path.dirname(berndenom.__file__))
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    err = subprocess.run(
        [sys.executable, "-c", "import os, sys\n" + code],
        env=dict(environ, PYTHONPATH=src, **env),
        capture_output=True,
        text=True,
        check=True,
    ).stderr
    return err.splitlines()[-1].split()


def loaded_modules(code):
    """sys.modules after running code in a fresh interpreter."""
    return set(probe(code + "\nprint(' '.join(sys.modules), file=sys.stderr)"))


def test_cli_start_does_not_import_the_process_pool():
    # only a scan of more than one step on more than one thread loads concurrent.futures
    assert "concurrent.futures" not in loaded_modules("import berndenom.cli")


def test_bare_package_import_loads_no_numpy():
    loaded = loaded_modules("import berndenom")
    assert "numpy" not in loaded
    assert not {m for m in loaded if m.startswith("berndenom.")}


# each command, and the modules it must not load; none here needs the thread pool
# (the threaded scan is one step),
# and only a scan hashes, so no other command loads hashlib and its OpenSSL
# unless numpy itself does (numpy 1.x imports numpy.random, whose secrets loads it).
# decimal, and its libmpdec, come only with an int past arith._DECIMAL_LEAF_BITS
# or with verify's fractions
_UNUSED = {"berndenom.verify", "berndenom.oracle", "decimal"}
_HEAVY = _UNUSED | {"berndenom.scanner", "fractions", "hashlib"}
IMPORT_SURFACE = {
    "profile": (["profile", "8"], _HEAVY),
    "seq": (["seq", "db_k", "1", "30", "--k", "2"], _HEAVY),
    "scan": (["scan", "--limit", "1000"], _UNUSED),
    "scan-threads": (
        ["scan", "--limit", "1000", "--chunk", "100", "--threads", "2"],
        _UNUSED | {"concurrent.futures", "multiprocessing"},
    ),
    "sets": (["sets", "--k", "2", "--limit", "200"], _UNUSED | {"hashlib"}),
    "radset": (["radset", "--limit", "200"], _UNUSED | {"hashlib"}),
    "verify": (["verify", "--limit", "50", "--oracle-limit", "5"], {"hashlib"}),
}


@functools.cache
def numpy_modules():
    """What `import numpy` loads by itself, which no command can avoid."""
    return loaded_modules("import numpy")


TASKS = "/proc/self/task"  # one entry per thread of the process, on Linux


@pytest.mark.parametrize("command", sorted(IMPORT_SURFACE))
def test_command_loads_only_its_modules(command):
    argv, unused = IMPORT_SURFACE[command]
    threads, *loaded = probe(
        f"from berndenom.cli import main\nassert main({argv!r}) == 0\n"
        f"print(len(os.listdir({TASKS!r})) if os.path.isdir({TASKS!r}) else 0, *sys.modules, "
        "file=sys.stderr)"
    )
    assert "berndenom.denom" in loaded  # the probe ran the command
    forbidden = (unused | {"concurrent.futures"}) - numpy_modules()
    assert set(loaded) & forbidden == set()
    if threads == "0":
        pytest.skip(f"no {TASKS} to count threads in")
    # numpy's import starts an OpenBLAS worker unless cli pins the pool to one thread
    assert threads == "1"


def test_callers_blas_setting_wins_over_the_pin():
    code = "import berndenom.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'], file=sys.stderr)"
    assert probe(code, OPENBLAS_NUM_THREADS="2") == ["2"]


BLAS_NAMES = {"dot", "matmul", "vdot", "inner", "tensordot", "einsum", "linalg"}


def test_package_calls_no_blas():
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(berndenom.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(getattr(node, "op", None), ast.MatMult) or name in BLAS_NAMES:
                found.append(f"{os.path.basename(path)}:{node.lineno}")
    assert not found, (
        "cli pins OpenBLAS to one thread because berndenom calls no BLAS; "
        f"these look like BLAS calls: {found}"
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["seq", "omega_plus", "1", "300000"], 0),
        (["--format", "json", "seq", "dd", "1", "3000"], 0),
        (["verify", "--limit", "50", "--oracle-limit", "5", "--inject-fault", "decomposition:3"], 1),
    ],
    ids=["csv", "json", "counterexample"],
)
def test_process_entry_writes_and_exits_as_main_returns(capsys, argv, expected):
    # run() ends the process with os._exit, which flushes no buffer; unbuffered
    # output would hide a lost one, so stdout is block-buffered into the pipe
    src = os.path.dirname(os.path.dirname(berndenom.__file__))
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run(
        [sys.executable, "-m", "berndenom", *argv],
        env=dict(environ, PYTHONPATH=src),
        capture_output=True,
        timeout=60,
    )
    code, out, err = run_cli(capsys, *argv)
    assert (done.returncode, done.stderr) == (code, err.encode()) == (expected, b"")
    assert done.stdout == out.encode()
