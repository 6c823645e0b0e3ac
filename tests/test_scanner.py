import collections
import functools
import hashlib
import itertools
import json
import threading
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berndenom import arith, denom, scanner
from berndenom.arith import SieveSizeError, digit_sum, is_prime, radical, sieve
from berndenom.scanner import (
    CheckpointError,
    ScanChunk,
    ScanConfig,
    checkpoint_resume,
    checkpoint_save,
    chunk_checksum,
    find_rad_set,
    find_sets,
    run_scan,
    scan_omega_plus,
)

S1 = (1, 2, 4, 6, 10, 12, 28, 30, 36, 60)
S2 = (
    *range(1, 8), *range(9, 14), 15, 16, 21, 25, *range(28, 32),
    36, 37, 55, 57, 60, 61, 70, 121, 190,
)
S3 = (
    *range(1, 19), 20, 21, 22, 25, 26, *range(28, 33), *range(35, 39),
    42, 50, 52, *range(55, 59), 60, 61, 62, 66, 70, 71, 72, 78, 80, 92,
    110, 121, 122, 156, 176, 177, 190, 191, 210, 392,
)
RAD_SET = (3, 5, 8, 9, 11, 27, 29, 35, 59)

# steps of sequence("omega_plus")'s run count (DEFAULT_CHUNK_SIZE) and of scanner._zeros
# (_step), behind scan_omega_plus, find_sets and find_rad_set: none may change what they report
CHUNK_GRIDS = pytest.mark.parametrize("chunk", [1, 7, 64, denom.DEFAULT_CHUNK_SIZE])


def uncovered(lo, hi, cut, depth):
    """The indices of _uncovered's gaps, as a list."""
    return denom._ragged(*scanner._uncovered(lo, hi, cut, depth)).tolist()


class TestScanOmegaPlus:
    def test_first_ten(self):
        assert denom._run_counts(1, 10).tolist() == [0, 0, 1, 0, 1, 0, 1, 1, 1, 0]
        assert scan_omega_plus(1, 10).exceptional == (1, 2, 4, 6, 10)

    def test_matches_per_index_route(self):
        counts = denom._run_counts(1, 2000)
        for n in range(1, 2001):
            assert int(counts[n - 1]) == denom.omega_dd_plus(n)

    def test_window_shift_preserves_values(self):
        wide = denom._run_counts(1, 600)
        window = denom._run_counts(101, 400)
        assert np.array_equal(window, wide[100:400])

    def test_bound_below_sqrt(self):
        counts = denom._run_counts(1, 5000)
        n = np.arange(1, 5001, dtype=np.int64)
        assert not np.any(counts.astype(np.int64) ** 2 >= n)

    @CHUNK_GRIDS
    def test_sequence_on_any_chunk_grid(self, monkeypatch, chunk):
        monkeypatch.setattr(denom, "DEFAULT_CHUNK_SIZE", chunk)
        assert list(denom.sequence("omega_plus", 1, 3000)) == denom._run_counts(1, 3000).tolist()

    def test_sequence_across_2_20_is_the_run_count(self):
        lo, hi = 2**20 - 50, 2**20 + 50
        assert list(denom.sequence("omega_plus", lo, hi)) == denom._run_counts(lo, hi).tolist()

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            scan_omega_plus(0, 10)
        with pytest.raises(ValueError):
            scan_omega_plus(10, 5)


class TestSixteenBitCounts:
    """The counts are int16: one run per quotient a1 <= isqrt(hi) holds n at most."""

    def test_the_sieve_cap_keeps_every_count_below_2_15(self):
        # seq omega_plus, the only caller, sieves to (hi + 1) // 2, so its hi is at
        # most 2 * cap + 1; a higher cap fails here instead of wrapping the counts silently
        assert isqrt(2 * arith.DEFAULT_SIEVE_CAP + 1) < 2**15

    def test_counts_are_int16(self):
        assert denom._run_counts(1, 100).dtype == np.int16
        assert denom._run_counts(1000, 1100).dtype == np.int16

    @pytest.mark.parametrize("lo, hi", [(1, 5000), (10**6 - 4096, 10**6), (2**23 - 4096, 2**23)])
    def test_no_count_exceeds_isqrt_hi(self, lo, hi):
        counts = denom._run_counts(lo, hi)
        assert counts.min() >= 0 and counts.max() <= isqrt(hi)
        assert counts[-1] == denom.omega_dd_plus(hi)  # the top count, past 255 at 2^23


@functools.cache
def primes_to(limit: int) -> np.ndarray:
    """The primes up to limit, sieved directly for the brute force."""
    return sieve(limit).array


def brute_force_counts(ns, primes: np.ndarray) -> list[int]:
    """omega_+(n) per n: primes p with p*p > n and base-p digit sum n//p + n%p >= p."""
    counts = []
    for n in ns:
        p = primes[primes * primes > n]
        counts.append(int(np.count_nonzero(n // p + n % p >= p)))
    return counts


BATCHES = pytest.mark.parametrize("batch", [None, 7, 1], ids=["batch-default", "batch-7", "batch-1"])


def scan_with_batch(lo, hi, batch):
    """The scan's counts with the run budget per batch set to batch (None
    keeps the default); 1 and 7 cut batches inside a1 slices."""
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr(denom, "_RUN_BATCH", batch)
        return denom._run_counts(lo, hi)


class TestAgainstBruteForce:
    @BATCHES
    def test_every_window_to_400(self, batch):
        expected = brute_force_counts(range(1, 401), primes_to(20_002))
        # each batch costs a few numpy calls, so tiny budgets get fewer windows
        top = {None: 400, 7: 100, 1: 40}[batch]
        windows = [(lo, hi) for hi in range(1, top + 1) for lo in range(1, hi + 1)]
        if top < 400:
            windows += [(lo, 400) for lo in range(1, 401, 13)]
        for lo, hi in windows:
            counts = scan_with_batch(lo, hi, batch)
            assert counts.tolist() == expected[lo - 1 : hi], (lo, hi)

    @BATCHES
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_windows(self, batch, data):
        max_width = 70_000 if batch is None else 300 * batch
        hi = data.draw(st.integers(1, 2 * 10**6), label="hi")
        width = data.draw(st.integers(1, min(max_width, hi)), label="width")
        lo = hi - width + 1
        picks = data.draw(st.lists(st.integers(lo, hi), max_size=12), label="picks")
        sample = sorted({lo, hi, *picks})
        counts = scan_with_batch(lo, hi, batch)
        got = [int(counts[n - lo]) for n in sample]
        assert got == brute_force_counts(sample, primes_to(10**6))


class TestChunkIndependence:
    def test_any_partition_matches_direct_scan(self):
        direct = scan_omega_plus(1, 5000)
        cuts = [1, 7, 1000, 1001, 4999, 5000]
        ranges = [(lo, hi - 1) for lo, hi in zip(cuts, cuts[1:] + [5001]) if lo <= hi - 1]
        parts = [scan_omega_plus(lo, hi) for lo, hi in ranges]
        exceptional = tuple(n for c in parts for n in c.exceptional)
        counts = np.concatenate([denom._run_counts(lo, hi) for lo, hi in ranges])
        assert np.array_equal(counts, denom._run_counts(1, 5000))
        assert exceptional == direct.exceptional
        assert chunk_checksum(1, 5000, exceptional) == direct.checksum


def full_counts(lo, hi, cut):
    """For each n in [lo, hi], how many runs of heavy_runs cut short by cut
    hold n, every quotient counted: _run_counts itself for cut 0."""
    if cut == 0:
        return denom._run_counts(lo, hi)
    delta = np.zeros(hi - lo + 2, dtype=np.int64)
    for _, begin, stop in denom.heavy_runs(lo, hi, cut):
        np.add.at(delta, begin, 1)
        np.subtract.at(delta, stop, 1)
    return np.cumsum(delta[:-1])


def full_zeros(lo, hi, cut):
    return (np.flatnonzero(full_counts(lo, hi, cut) == 0) + lo).tolist()


COVER_TOP = 134_000_000  # full_counts sieves to hi / 2, which the sieve cap admits to here


class TestCover:
    """_zeros reads the runs of each index's _DEPTH + cut + 1 largest quotients, from
    the primes to their reach alone, and covers a step again, deeper, while those runs
    leave an index uncovered past the depth."""

    @CHUNK_GRIDS
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_windows_match_the_full_count(self, chunk, data):
        width = data.draw(st.integers(1, min(1 << 16, 64 * chunk)), label="width")
        cut = data.draw(st.integers(0, 63) | st.integers(64, 3000), label="cut")
        depth = scanner._DEPTH + cut
        edge = data.draw(st.sampled_from(["any", "a^2", "(a+depth+1)^2"]), label="edge")
        if edge == "any":
            hi = data.draw(st.integers(1, COVER_TOP), label="hi")
        else:  # a window across the first or the last index whose top quotients hold a
            a = data.draw(st.integers(cut + 1, isqrt(COVER_TOP) - depth - 1), label="a")
            mark = a * a if edge == "a^2" else (a + depth + 1) ** 2
            hi = min(mark + data.draw(st.integers(0, width - 1), label="above"), COVER_TOP)
        lo = max(hi - width + 1, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scanner, "_step", lambda start: chunk)
            assert list(scanner._zeros(lo, hi, cut)) == full_zeros(lo, hi, cut)

    @pytest.mark.parametrize(
        "lo, hi, cut", [(1, 20_000, 0), (1, 20_000, 3), (10**8, 10**8 + 500, 0), (10**8, 10**8 + 500, 1)]
    )
    def test_the_re_cover_decides_what_a_shallow_cover_leaves(self, monkeypatch, lo, hi, cut):
        # at depth 64 almost nothing is left past the depth; at depth 2 hundreds
        # of indices are, and the deeper covers reject nine in ten of them or more
        # (at 10^8 all of them, from the primes to each deeper cover's reach)
        monkeypatch.setattr(scanner, "_DEPTH", 2)
        zeros = list(scanner._zeros(lo, hi, cut))
        assert zeros == full_zeros(lo, hi, cut)
        left = uncovered(lo, hi, cut, 2 + cut)
        assert len(left) > 400 and len(zeros) < len(left) // 10

    @pytest.mark.parametrize("depth", [0, 1])
    def test_the_re_cover_starts_where_a_shallower_cover_stops(self, monkeypatch, depth):
        # quotient 1, the first below a depth-0 cover, holds 5 = 2 * 3 - 1, and below
        # a depth-1 cover it holds 9: covering again only from one square later misses them
        monkeypatch.setattr(scanner, "_DEPTH", depth)
        for cut in range(6):
            assert list(scanner._zeros(1, 3000, cut)) == full_zeros(1, 3000, cut), cut
            # one index a step, so each is covered again exactly as deep as it needs
            zeros = [n for n in range(1, 300) if list(scanner._zeros(n, n, cut)) == [n]]
            assert zeros == full_zeros(1, 299, cut), cut

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_a_cover_from_depth_0_up_is_covered_again_until_exact(self, data):
        # a window of at most one step, covered first at a depth of 0, 1, 2 or 5
        # past cut, then at 2 * depth + 1 while an index is left past the depth
        floor = data.draw(st.sampled_from([0, 1, 2, 5]), label="_DEPTH")
        cut = data.draw(st.integers(0, 300) | st.just(3000), label="cut")
        hi = data.draw(st.integers(1, COVER_TOP), label="hi")
        lo = max(hi - data.draw(st.integers(0, denom.DEFAULT_CHUNK_SIZE - 1), label="below"), 1)
        depths, uncovered = [], scanner._uncovered

        def spy(lo, hi, cut, depth):
            depths.append(depth)
            return uncovered(lo, hi, cut, depth)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scanner, "_DEPTH", floor)
            mp.setattr(scanner, "_uncovered", spy)
            assert list(scanner._zeros(lo, hi, cut)) == full_zeros(lo, hi, cut)
        assert depths == [(floor + cut + 1) * 2**i - 1 for i in range(len(depths))]

    def test_a_step_wider_than_2_32_is_covered(self):
        # offsets past 2^31 stay the int64 ones of heavy_runs; depth 3000 covers every index here
        lo, hi = 10**12, 10**12 + 2**32 - 1
        assert uncovered(lo, hi, 0, 3000) == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_the_reach_is_the_largest_bound_over_every_quotient(self, data):
        # heavy_reach reads at most three quotients; _searched lists every one
        hi = data.draw(st.integers(1, 10**11), label="hi")
        lo = data.draw(st.integers(max(hi - (1 << 20), 1), hi) | st.integers(1, hi), label="lo")
        cut = data.draw(st.integers(0, 63), label="cut")
        depth = data.draw(st.sampled_from([None, 0, 1, 2, 5, 64 + cut, 129 + 2 * cut, 259 + 4 * cut])
                          | st.integers(0, 5000), label="depth")
        full = denom._searched(lo, hi, cut, depth)[2].max(initial=0)
        assert denom.heavy_reach(lo, hi, cut, depth) == full

    def test_a_re_cover_past_the_cap_names_its_index(self, monkeypatch):
        # 1080 has one heavy prime above its square root, 47 at quotient 22; with that
        # run dropped, 1080 is left at every depth, and from depth 0 up the re-cover
        # at depth 31 reads the primes to 540, past a cap of 256
        monkeypatch.setattr(scanner, "_DEPTH", 0)
        monkeypatch.setattr(arith, "DEFAULT_SIEVE_CAP", 256)
        monkeypatch.setattr(arith, "_SHARED", None)
        assert scan_omega_plus(1080, 1080).exceptional == ()  # covered at depth 15
        runs = denom.heavy_runs

        def dropping_47(lo, hi, cut=0, depth=None):
            for p, begin, stop in runs(lo, hi, cut, depth):
                keep = p != 47
                yield p[keep], begin[keep], stop[keep]

        monkeypatch.setattr(denom, "heavy_runs", dropping_47)
        message = "covering n = 1080 at depth 31: sieve limit 540 exceeds the cap of 256; see `profile 1080`"
        with pytest.raises(SieveSizeError, match=message):
            scan_omega_plus(1080, 1080)

    @settings(max_examples=40, deadline=None)
    @given(hi=st.integers(134_000_001, 10**12), width=st.integers(1, 1 << 8))
    @example(hi=384_529_838 + 255, width=256)  # the first indices depth 64 leaves here,
    @example(hi=985_677_418 + 255, width=256)  # so each window is covered again
    def test_every_index_past_the_old_cap_has_a_witness(self, hi, width):
        # past the old cap no count checks the cover; a heavy prime above sqrt(n) found with
        # plain ints does, from n's smallest quotients: p = n // (a + 1) + 1 at the first a
        # with (a + 1) not dividing n, p > a and p prime, with no sieve and no heavy_runs
        lo = max(hi - width + 1, 134_000_001)
        assert list(scanner._zeros(lo, hi, 0)) == []
        for n in range(lo, hi + 1):
            a = 1
            while n % (a + 1) == 0 or n // (a + 1) + 1 <= a or not is_prime(n // (a + 1) + 1):
                a += 1
            p = n // (a + 1) + 1
            assert p * p > n and digit_sum(n, p) >= p, (n, p)

    def test_the_cover_alone_leaves_only_the_exceptional_indices_to_5_million(self):
        assert scanner._DEPTH == 64  # K = 32 left 2,843 indices past the depth here
        top, step = 5 * 10**6, denom.DEFAULT_CHUNK_SIZE
        ends = [(lo, min(lo + step - 1, top)) for lo in range(1, top + 1, step)]
        left = [n for lo, hi in ends for n in uncovered(lo, hi, 0, 64)]
        assert tuple(left) == scan_omega_plus(1, top).exceptional

    @pytest.mark.parametrize("grain", [1, 7, 1 << 14, 1 << 20, 3 << 20, 10**9])
    @pytest.mark.parametrize("lo, hi", [(1, 5 * 10**6), (1, 1), (10**12 + 1, 10**12 + 2**36)])
    def test_steps_tile_the_range_in_whole_grains(self, lo, hi, grain):
        # each step starts one past the last, holds _step(start) indices or more, and ends
        # on the grain grid from lo unless it ends at hi
        steps = list(scanner._steps(lo, hi, grain))
        assert steps[0][0] == lo and steps[-1][1] == hi
        assert all(end + 1 == start for (_, end), (start, _) in zip(steps, steps[1:]))
        for start, end in steps[:-1]:
            assert (end - lo + 1) % grain == 0 and end - start + 1 >= scanner._step(start)
            assert end - start + 1 < scanner._step(start) + grain

    def test_steps_grow_with_the_square_root(self):
        # 2^20 to 2^16, then 2^12 times the power of two past isqrt(start)
        assert [scanner._step(n) for n in (1, 2**16 - 1, 2**16, 2**18, 10**12, 10**15)] == [
            2**20, 2**20, 2**21, 2**22, 2**32, 2**37
        ]
        assert [sum(1 for _ in scanner._steps(1, 10**e)) for e in (11, 15)] == [113, 11_374]

    @settings(max_examples=30, deadline=None)
    @given(hi=st.integers(10**9, 10**15), width=st.integers(1, 1 << 16))
    @example(hi=384_529_838 + 2**16, width=2**16)  # where depth 64 leaves indices
    def test_grown_steps_match_a_deep_cover_of_fixed_steps(self, hi, width):
        # the grown steps that meet a window, as a scan past hi walks them, against a cover
        # of the window at depth 1024 in steps of 2^20; past 10^6 neither leaves an index
        lo = hi - width + 1
        grown = []
        for start, end in scanner._steps(1, 2 * hi):
            if start > hi:
                break
            if end >= lo:
                grown += [n for n in scanner._zeros(start, end, 0) if lo <= n <= hi]
        fixed = [
            n for start in range(1 + (lo - 1 >> 20 << 20), hi + 1, 1 << 20)
            for n in uncovered(max(start, lo), min(start + (1 << 20) - 1, hi), 0, 1024)
        ]
        assert grown == fixed == []


class TestFindSets:
    def test_first_derivative_set(self):
        assert find_sets(1, 500) == S1

    def test_second_derivative_set(self):
        assert find_sets(2, 500) == S2

    def test_third_derivative_set(self):
        assert find_sets(3, 500) == S3

    def test_members_verified_by_full_product(self):
        for k in (1, 2, 3):
            members = find_sets(k, 500)
            for n in members:
                assert denom.db_k(n, k) == 1
            for n in set(range(1, 501)) - set(members):
                assert denom.db_k(n, k) != 1

    def test_successors_of_first_set_are_prime(self):
        for n in find_sets(1, 500):
            assert is_prime(n + 1)

    def test_small_indices_always_members(self):
        assert find_sets(5, 3) == (1, 2, 3)

    @CHUNK_GRIDS
    def test_any_chunk_grid_matches_db_k(self, integral_to_3000, monkeypatch, chunk):
        monkeypatch.setattr(scanner, "_step", lambda start: chunk)
        for k, expected in integral_to_3000.items():
            assert find_sets(k, 3000) == expected, k

    def test_bound_is_the_primes_the_cover_reads(self, monkeypatch):
        # scan, sets and radset are refused by sieve() alone, exactly where the primes
        # their cover reads, scanner._sieve_bound, pass the cap: at a cap of 2^12 the
        # first top index refused is about 1.6 * 10^7, where half the top index refused 8,193
        cap = 1 << 12
        monkeypatch.setattr(arith, "DEFAULT_SIEVE_CAP", cap)
        monkeypatch.setattr(arith, "_SHARED", None)

        def first_refused(cut):  # the bound grows by at most 1 per index, so it meets cap + 1
            lo, hi = 1, cap * cap
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if scanner._sieve_bound(1, mid, cut) > cap else (mid + 1, hi)
            return lo

        scan_top, rad_top, sets3_top = first_refused(0), first_refused(1), first_refused(2)
        assert 16 * 10**6 < sets3_top < rad_top < scan_top < cap * cap
        run_scan(scan_top - 1)
        assert find_sets(1, scan_top - 1) == S1
        assert find_sets(3, sets3_top + 1) == S3  # its top index is limit - 2
        assert find_rad_set(rad_top - 1) == RAD_SET
        for refused in (
            lambda: run_scan(scan_top),
            lambda: find_sets(1, scan_top),
            lambda: find_sets(3, sets3_top + 2),
            lambda: find_rad_set(rad_top),
        ):
            with pytest.raises(SieveSizeError, match=f"sieve limit {cap + 1} exceeds"):
                refused()

    @pytest.mark.parametrize("lo, cut, top", [(1, 0, 4_503_591_037_435_904), (2, 1, 4_503_590_903_218_176)])
    def test_the_last_limits_under_the_cap(self, lo, cut, top):
        # scan and sets --k 1 read the primes to the cap at 4,503,591,037,435,904, radset at
        # 4,503,590,903,218,176; one index more reads one prime bound more
        assert scanner._sieve_bound(lo, top, cut) == arith.DEFAULT_SIEVE_CAP
        assert scanner._sieve_bound(lo, top + 1, cut) == arith.DEFAULT_SIEVE_CAP + 1

    def test_a_limit_past_int64_is_refused_without_overflow(self, monkeypatch):
        # the reach is taken in Python ints, so 10^30 asks sieve() for about 10^15 + 64
        monkeypatch.setattr(arith, "_SHARED", None)
        bound = scanner._sieve_bound(1, 10**30, 0)
        assert 10**15 < bound <= 10**15 + 2 * scanner._DEPTH
        with pytest.raises(SieveSizeError, match=f"sieve limit {bound} exceeds"):
            run_scan(10**30)


@pytest.fixture(scope="module")
def integral_to_3000():
    """For k <= 5, the n <= 3000 whose k-th derivative db_k(n, k) is integral."""
    return {
        k: tuple(n for n in range(1, 3001) if denom.db_k(n, k) == 1)
        for k in range(1, 6)
    }


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while fn(*args) runs; numpy reports its buffers to
    tracemalloc, so arrays count as well as Python objects."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_one_chunk_costs_one_batch_of_runs(self):
        # one batch of at most 2^15 runs, and the 24,912 runs that cover
        # [1, 2^20] as the int64 offsets heavy_runs yields: 1.17 MiB traced
        chunk = scanner.DEFAULT_CHUNK_SIZE
        arith.shared_sieve((chunk + 1) // 2)  # built before tracing: the chunk alone is measured
        assert traced_peak(scan_omega_plus, 1, chunk) < 3 << 19

    def test_scan_holds_one_sweep_step_whatever_its_chunk(self):
        # a chunk of four sweep steps: the runs of one step at a time, not of the chunk
        arith.shared_sieve((4 * denom.DEFAULT_CHUNK_SIZE + 1) // 2)  # built before tracing
        assert traced_peak(scan_omega_plus, 1, 4 * denom.DEFAULT_CHUNK_SIZE) < 4 << 20

    def test_omega_plus_sequence_holds_one_chunk(self):
        # one chunk's int16 counts and the list of its values, not the range's: 10.6 MiB
        chunk = denom.DEFAULT_CHUNK_SIZE
        arith.shared_sieve((4 * chunk + 1) // 2)  # built before tracing
        drain = lambda: collections.deque(denom.sequence("omega_plus", 1, 4 * chunk), maxlen=0)
        assert traced_peak(drain) < 12 << 20

    def test_the_reach_holds_three_quotients(self):
        # over every quotient, isqrt(hi) of them, the reach took 121 MiB at 10^13; near
        # the bound of 4.5 * 10^15 it would take some 2.5 GiB before the sieve could refuse
        for hi in (10**13, 4_503_591_037_435_905):
            assert traced_peak(denom.heavy_reach, 1, hi, 0, scanner._DEPTH) < 16 << 10

    def test_find_sets_peak_is_flat_in_the_limit(self):
        arith.shared_sieve(((1 << 23) + 2) // 2)  # both runs read this cache, built untraced
        small = traced_peak(find_sets, 1, 1 << 21)
        large = traced_peak(find_sets, 1, 1 << 23)
        assert large <= small + (1 << 20), (small, large)


def support_prefilter(lo, hi) -> list[int]:
    """The n in [lo, hi] at which every support prime above sqrt(n) divides
    n + 1, read off support_blocks: find_rad_set's pass before the run count."""
    survivors = []
    for block in denom.support_blocks(lo, hi):
        stray = ~block.minus & ((block.n + 1) % block.p != 0)
        strays = np.bincount(block.n[stray] - block.lo, minlength=block.hi - block.lo + 1)
        survivors += (np.flatnonzero(strays == 0) + block.lo).tolist()
    return survivors


class TestFindRadSet:
    def test_members(self):
        assert find_rad_set(100) == RAD_SET

    def test_matches_brute_force(self):
        expected = tuple(n for n in range(1, 10**4 + 1) if denom.dd(n) == radical(n + 1))
        assert expected == RAD_SET
        assert find_rad_set(10**4) == expected

    def test_cut_one_survivors_match_the_support_pass(self):
        assert list(scanner._zeros(1, 2 * 10**5, 1)) == support_prefilter(1, 2 * 10**5)

    @CHUNK_GRIDS
    def test_any_chunk_grid(self, monkeypatch, chunk):
        monkeypatch.setattr(scanner, "_step", lambda start: chunk)
        assert find_rad_set(3000) == RAD_SET

    def test_even_members_are_powers_of_two(self):
        for n in find_rad_set(100):
            if n % 2 == 0:
                assert n & (n - 1) == 0

    def test_successors_composite(self):
        for n in find_rad_set(100):
            assert not is_prime(n + 1)


@pytest.mark.parametrize(
    "query", [functools.partial(find_sets, 2), functools.partial(find_sets, 12), find_rad_set],
    ids=["sets-k2", "sets-k12", "radset"],
)
def test_no_member_between_10_6_and_10_11(query):
    # grown steps take these to 10^11 in a fraction of a second, where 2^20 steps took minutes
    assert query(10**11) == query(10**6)


def kappa(lo, hi):
    """omega_+(n) * ln(n) / sqrt(n) for every n in [lo, hi]."""
    n = np.arange(lo, hi + 1, dtype=np.float64)
    return denom._run_counts(lo, hi) * np.log(n) / np.sqrt(n)


class TestKappaRatio:
    def test_deterministic(self, monkeypatch):
        first = kappa(2, 3000)
        monkeypatch.setattr(arith, "_SHARED", None)  # the same from a freshly built cache
        assert np.array_equal(kappa(2, 3000), first)

    def test_raw_ratio_below_one(self):
        counts = denom._run_counts(2, 3000)
        n = np.arange(2, 3001, dtype=np.float64)
        assert np.all(counts.astype(np.float64) / np.sqrt(n) < 1.0)


class TestCheckpointing:
    def test_a_resume_reads_its_checkpoint_a_line_at_a_time(self, tmp_path):
        # 20,000 records: the resume holds its chunks and one line, not the file as one
        # string and a list of its lines beside them, which took 5.8 MiB more than the chunks
        config = ScanConfig(1, 20_000 * 7, 7)
        path = tmp_path / "scan.ckpt"
        checkpoint_resume(path, config)  # writes the header
        with open(path, "ab") as fh:
            for lo, hi in config.chunk_ranges():
                fh.write(scanner._record(ScanChunk(lo, hi, (), chunk_checksum(lo, hi, ()))))
        tracemalloc.start()
        try:
            chunks = list(checkpoint_resume(path, config))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(chunks) == 20_000 and peak - held < 1 << 20

    def test_a_resumed_scan_holds_no_record(self, tmp_path, monkeypatch):
        # each resumed record is folded and let go: holding the 20,000 took 5.8 MiB more
        # than the same scan with no checkpoint; a step's scan is stubbed, so both are quick
        monkeypatch.setattr(scanner, "_scan_step", lambda step: (step, []))
        config = ScanConfig(1, 20_000 * 7, 7)
        path = tmp_path / "scan.ckpt"
        checkpoint_resume(path, config)  # writes the header
        with open(path, "ab") as fh:
            for lo, hi in config.chunk_ranges():
                fh.write(scanner._record(ScanChunk(lo, hi, (), chunk_checksum(lo, hi, ()))))
        arith.shared_sieve(scanner._sieve_bound(1, config.hi, 0))  # built before tracing
        fresh = traced_peak(lambda: run_scan(config.hi, chunk_size=7))
        monkeypatch.setattr(scanner, "_scan_step", None)  # a full checkpoint scans no step
        resumed = traced_peak(lambda: run_scan(config.hi, chunk_size=7, checkpoint_path=path))
        assert resumed < fresh + (1 << 20), (fresh, resumed)

    def test_save_resume_roundtrip(self, tmp_path):
        config = ScanConfig(1, 3000, 1000)
        path = tmp_path / "scan.ckpt"
        assert list(checkpoint_resume(path, config)) == []  # writes the header
        chunks = [scan_omega_plus(lo, hi) for lo, hi in config.chunk_ranges()]
        for chunk in chunks:
            checkpoint_save(path, chunk)
        assert list(checkpoint_resume(path, config)) == chunks

    def test_interrupted_resume_matches_uninterrupted(self, tmp_path):
        # an interrupted scan leaves some prefix of the lines of a finished one
        path = tmp_path / "fresh.ckpt"
        fresh = run_scan(3000, chunk_size=400, threads=2, checkpoint_path=path)
        assert fresh == run_scan(3000, chunk_size=400)
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + 8  # the header, then one record per chunk
        for kept in range(1, len(lines) + 1):
            cut = tmp_path / f"cut{kept}.ckpt"
            cut.write_bytes(b"".join(lines[:kept]))
            assert run_scan(3000, chunk_size=400, checkpoint_path=cut) == fresh
            assert cut.read_bytes() == path.read_bytes(), kept

    def test_completed_checkpoint_skips_rescanning(self, tmp_path, monkeypatch):
        path = tmp_path / "scan.ckpt"
        first = run_scan(2000, chunk_size=512, checkpoint_path=path)
        written = path.read_bytes()

        def explode(*args, **kwargs):
            raise AssertionError("resume of a complete scan must not rescan")

        monkeypatch.setattr(scanner, "_scan_step", explode)
        again = run_scan(2000, chunk_size=512, checkpoint_path=path)
        assert again == first
        assert path.read_bytes() == written

    def test_mismatched_config_rejected(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        run_scan(2000, chunk_size=512, checkpoint_path=path)
        with pytest.raises(CheckpointError):
            run_scan(3000, chunk_size=512, checkpoint_path=path)
        with pytest.raises(CheckpointError):
            run_scan(2000, chunk_size=256, checkpoint_path=path)

    def test_version_1_checkpoint_refused(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        header = {**ScanConfig(1, 2000, 512).header(), "berndenom_checkpoint": 1}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(CheckpointError, match="version 1 .*version 2"):
            run_scan(2000, chunk_size=512, checkpoint_path=path)

    def test_empty_checkpoint_warns_and_starts_fresh(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        path.write_text("")
        with pytest.warns(UserWarning):
            result = run_scan(2000, chunk_size=512, checkpoint_path=path)
        assert result == run_scan(2000, chunk_size=512)

    def test_corrupt_record_checksum_rejected(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        run_scan(2000, chunk_size=512, checkpoint_path=path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["exceptional"] = record["exceptional"][:-1]  # results no longer match digest
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            list(checkpoint_resume(path, ScanConfig(1, 2000, 512)))

    def test_garbled_record_rejected(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        run_scan(2000, chunk_size=512, checkpoint_path=path)
        text = path.read_text().splitlines()
        for garbled in ("{not json", "null", "5", "[]", '{"complete":true}'):
            path.write_text("\n".join(text[:2] + [garbled] + text[3:]) + "\n")
            with pytest.raises(CheckpointError):
                list(checkpoint_resume(path, ScanConfig(1, 2000, 512)))

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        run_scan(2000, chunk_size=512, checkpoint_path=path)
        checkpoint_save(path, scan_omega_plus(513, 1024))
        with pytest.raises(CheckpointError, match="chunk grid, expected none past its end"):
            list(checkpoint_resume(path, ScanConfig(1, 2000, 512)))

    @pytest.mark.parametrize(
        "order, wanted", [([0, 2, 3], 1), ([1, 0, 2], 0), ([2], 0)], ids=["gap", "swapped", "lone-later"]
    )
    def test_records_out_of_grid_order_are_refused_before_any_chunk(self, tmp_path, monkeypatch, order, wanted):
        # a resume takes the grid's first chunks in order, so it has nothing to sort or merge
        full = tmp_path / "full.ckpt"
        run_scan(2000, chunk_size=400, checkpoint_path=full)
        header, *records = full.read_bytes().splitlines(keepends=True)
        path = tmp_path / "scan.ckpt"
        path.write_bytes(header + b"".join(records[i] for i in order))
        written = path.read_bytes()

        def explode(*args, **kwargs):
            raise AssertionError("a refused checkpoint must stop the scan before any chunk")

        monkeypatch.setattr(scanner, "_scan_step", explode)
        expected = list(ScanConfig(1, 2000, 400).chunk_ranges())[wanted]
        with pytest.raises(CheckpointError, match="chunk grid, expected \\[%d, %d\\]" % expected):
            run_scan(2000, chunk_size=400, checkpoint_path=path)
        assert path.read_bytes() == written

    def test_off_grid_record_rejected(self, tmp_path):
        config = ScanConfig(1, 2000, 512)
        path = tmp_path / "scan.ckpt"
        checkpoint_resume(path, config)
        exceptional = (7,)
        checkpoint_save(path, ScanChunk(7, 600, exceptional, chunk_checksum(7, 600, exceptional)))
        with pytest.raises(CheckpointError, match="chunk grid"):
            list(checkpoint_resume(path, config))

    def test_a_wide_grid_is_checked_by_arithmetic(self, tmp_path):
        # 157,073,089,829 chunks of 7: a listed grid would take terabytes
        config = ScanConfig(1, 2**40, 7)
        last = 1 + (2**40 - 1) // 7 * 7
        path = tmp_path / "wide.ckpt"
        checkpoint_resume(path, config)  # writes the header
        header = path.read_bytes()

        def resume_with(lo, hi):
            path.write_bytes(header)
            checkpoint_save(path, ScanChunk(lo, hi, (), chunk_checksum(lo, hi, ())))
            return [chunk.lo for chunk in checkpoint_resume(path, config)]

        tracemalloc.start()
        try:
            assert resume_with(1, 7) == [1]
            for lo, hi in [(8, 14), (last, 2**40), (1, 8), (2**40 + 1, 2**40 + 7)]:
                with pytest.raises(CheckpointError, match="chunk grid, expected \\[1, 7\\]"):
                    resume_with(lo, hi)  # skips the first chunk, a lone last one, hi wrong, past hi
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        # on a small grid, every chunk in order, the last one short, is accepted
        small, path = ScanConfig(1, 50, 7), tmp_path / "small.ckpt"
        checkpoint_resume(path, small)  # writes the header
        for lo, hi in small.chunk_ranges():
            checkpoint_save(path, ScanChunk(lo, hi, (), chunk_checksum(lo, hi, ())))
        assert [chunk.lo for chunk in checkpoint_resume(path, small)] == [*range(1, 51, 7)]


class TestRunScan:
    def test_chunked_equals_single_chunk(self):
        small = run_scan(3000, chunk_size=700)
        single = run_scan(3000, chunk_size=3000)
        assert small.exceptional == single.exceptional
        # digests cover the chunk tiling, so they differ across chunk sizes
        tiles = list(ScanConfig(1, 3000, 700).chunk_ranges())
        joined = "|".join(scan_omega_plus(lo, hi).checksum for lo, hi in tiles)
        assert len(tiles) == 5 and small.digest == hashlib.sha256(joined.encode("ascii")).hexdigest()
        assert single.digest == hashlib.sha256(scan_omega_plus(1, 3000).checksum.encode("ascii")).hexdigest()

    def test_exceptional_matches_scan(self):
        result = run_scan(3000, chunk_size=700)
        assert result.exceptional == scan_omega_plus(1, 3000).exceptional

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda: run_scan(3 << 20),
            lambda: find_sets(1, 3 << 20),
            lambda: find_rad_set(3 << 20),
            lambda: collections.deque(denom.sequence("omega_plus", 1, 3 << 20), maxlen=0),
        ],
        ids=["run_scan", "find_sets", "find_rad_set", "omega_plus"],
    )
    def test_sweep_builds_one_sieve(self, monkeypatch, sweep):
        # three chunks of 2^20: growing the cache chunk by chunk would build three
        built = []
        real_sieve = arith.sieve

        def recording_sieve(limit):
            built.append(limit)
            return real_sieve(limit)

        monkeypatch.setattr(arith, "_SHARED", None)
        monkeypatch.setattr(arith, "sieve", recording_sieve)
        sweep()
        assert len(built) == 1, built

    @CHUNK_GRIDS
    def test_any_sweep_grid_keeps_result_and_checkpoint(self, tmp_path, monkeypatch, chunk):
        # the scan's own chunk sets the records; the sweep's steps under it change nothing
        def scan(label, chunk_size, threads):
            path = tmp_path / f"{label}-{chunk_size}-{threads}.ckpt"
            result = run_scan(3000, chunk_size=chunk_size, threads=threads, checkpoint_path=path)
            return result, path.read_bytes()

        shapes = [(c, t) for c in (500, 3000) for t in (1, 2)]
        expected = {shape: scan("default", *shape) for shape in shapes}
        monkeypatch.setattr(scanner, "_step", lambda start: chunk)
        for shape in shapes:
            assert scan("patched", *shape) == expected[shape], shape

    def test_each_record_is_its_chunks_own_scan(self, tmp_path):
        # zeros on a chunk's hi, 192 on the chunks of 96 and every zero on those of 1,
        # are filed under that chunk; a step spans all of the grid here
        for chunk in (1, 2, 3, 64, 96):
            path = tmp_path / f"{chunk}.ckpt"
            run_scan(400, chunk_size=chunk, checkpoint_path=path)
            records = path.read_bytes().splitlines(keepends=True)[1:]
            grid = ScanConfig(1, 400, chunk).chunk_ranges()
            assert records == [scanner._record(scan_omega_plus(lo, hi)) for lo, hi in grid], chunk

    def test_parallel_equals_serial(self, tmp_path, monkeypatch):
        # growing steps of several chunks of 300, the last chunk short at 9,001; each
        # scan fresh, then resumed from every cut of the serial file, on 1 to 4 threads
        monkeypatch.setattr(scanner, "_step", lambda start: 500 + start // 4)
        steps = list(scanner._steps(1, 9001, 300))
        assert len(steps) == 7 and steps[1] == (601, 1500) and steps[-1] == (6901, 9001)

        def scan(path, threads):
            return run_scan(9001, chunk_size=300, threads=threads, checkpoint_path=path), path.read_bytes()

        serial = scan(tmp_path / "serial.ckpt", 1)
        lines = serial[1].splitlines(keepends=True)
        assert len(lines) == 1 + 31
        for threads in (1, 2, 3, 4):
            assert scan(tmp_path / f"fresh-{threads}.ckpt", threads) == serial, threads
            for kept in (1, 2, 3, 5, 17, 31, 32):
                cut = tmp_path / f"cut-{threads}-{kept}.ckpt"
                cut.write_bytes(b"".join(lines[:kept]))
                assert scan(cut, threads) == serial, (threads, kept)

    @pytest.mark.parametrize("threads, started", [(1, 0), (2, 2), (10**6, 3)])
    def test_threads_start_for_steps_alone(self, monkeypatch, threads, started):
        # three steps: one thread starts no pool, and a million start only three
        monkeypatch.setattr(scanner, "_step", lambda start: 1000)
        calls, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: calls.append(self) or start(self))
        assert run_scan(3000, chunk_size=500, threads=threads) == run_scan(3000, chunk_size=500)
        assert len(calls) == started

    def test_failing_worker_stops_the_scan_after_the_chunks_before_it(self, tmp_path, monkeypatch, capfd):
        monkeypatch.setattr(scanner, "_step", lambda start: 1000)  # six steps of two chunks
        serial = tmp_path / "serial.ckpt"
        run_scan(6000, chunk_size=500, checkpoint_path=serial)
        real = scanner._scan_step

        def failing(step):
            if step[0] == 2001:  # the third of six steps, while the fourth runs
                raise ValueError("injected failure")
            return real(step)

        monkeypatch.setattr(scanner, "_scan_step", failing)
        path = tmp_path / "failed.ckpt"
        threads = threading.active_count()
        with pytest.raises(ValueError, match="injected failure"):
            run_scan(6000, chunk_size=500, threads=2, checkpoint_path=path)
        assert path.read_bytes().splitlines() == serial.read_bytes().splitlines()[:5]
        assert capfd.readouterr().err == ""  # the failed step printed nothing
        assert threading.active_count() == threads  # every pool thread was joined

    def test_closing_early_leaves_no_worker(self, monkeypatch):
        monkeypatch.setattr(scanner, "_step", lambda start: 500)
        threads = threading.active_count()
        walk = scanner._walk(scanner._steps(1, 6000), 2)
        assert next(walk) == ((1, 500), list(scan_omega_plus(1, 500).exceptional))
        walk.close()
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "limit, chunk",
        [(1, 1 << 20), (2**32, 1 << 20), (2**32 + 1, 1 << 21), (2**33, 1 << 21), (10**12, 1 << 28)],
    )
    def test_the_default_chunk_grows_past_2_32(self, monkeypatch, limit, chunk):
        # 2^20 to 2^32, so every digest and checkpoint there stays; past it at most
        # 4,096 records. Only the grid is read here: the steps scan nothing
        steps = []
        monkeypatch.setattr(scanner, "shared_sieve", lambda bound: None)
        monkeypatch.setattr(scanner, "_scan_step", lambda step: steps.append(step) or (step, []))
        assert run_scan(limit).chunk_size == chunk
        assert steps[0][0] == 1 and steps[-1][1] == limit
        assert sum(-(-(end - start + 1) // chunk) for start, end in steps) == -(-limit // chunk) <= 4096
        assert run_scan(min(limit, 50), chunk_size=7).chunk_size == 7  # a given chunk is kept

    def test_a_tiny_chunk_on_a_wide_limit_lists_no_grid(self, monkeypatch):
        # the first 20,000 of 157,073,089,829 chunks of 7, as one step: neither the grid
        # nor the finished records are held, where holding the records took 9 MB
        steps = scanner._steps
        monkeypatch.setattr(scanner, "_steps", lambda lo, hi, grain: itertools.islice(steps(lo, hi, grain), 1))
        monkeypatch.setattr(scanner, "_step", lambda start: 20_000 * 7)
        monkeypatch.setattr(scanner, "shared_sieve", lambda bound: None)
        monkeypatch.setattr(scanner, "_scan_step", lambda step: (step, []))
        tracemalloc.start()
        try:
            result = run_scan(2**40, chunk_size=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.chunk_size == 7 and result.exceptional == ()
        assert peak < 1 << 20, peak

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_scan(0)
        with pytest.raises(ValueError):
            run_scan(10, threads=0)
        with pytest.raises(ValueError):
            run_scan(10, chunk_size=0)
