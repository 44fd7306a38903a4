"""Tests of the benchmark's own machinery, on tiny inputs.

The oracles must agree with answers worked by hand, the text formats
must read back what they write, and the generated inputs must be what
the workloads claim they are.
"""

import random
import shutil
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import calibrate
import gen
import oracle
import terms
from run import tail

BENCH = Path(__file__).resolve().parent


def valid(text, k=1):
    return oracle.support_table(terms.parse(text), k) == oracle.all_teams(k)


def test_oracle_hand_worked_verdicts():
    # the team {0, 1} supports neither p nor ~p
    assert not valid("p \\/ ~p")
    assert valid("~~p -> p")
    assert valid("p -> p")
    assert not oracle.is_flat(oracle.support_table(terms.parse("?p"), 1), 1)
    assert oracle.is_flat(oracle.support_table(terms.parse("~~p -> p"), 1), 1)
    # |V|=1: teams {}, {0}, {1}, {0,1} are 0..3; p holds at world 1 only
    assert oracle.support_table(terms.parse("p"), 1) == 0b0101
    assert oracle.support_table(terms.parse("?p"), 1) == 0b0111


def test_leaf_p_entails_q_is_unsound():
    teams = range(4)
    refuting = [
        (tp, tq) for tp, tq in product(teams, teams)
        if oracle.leaf_refuted("p", "q", {"p": tp, "q": tq})
    ]
    assert (0b11, 0b00) in refuting
    assert not any(oracle.leaf_refuted("p", "p", {"p": t}) for t in teams)
    assert [t for t in teams if oracle.leaf_refuted("p", "0", {"p": t})] == [1, 2, 3]


def test_oracle_down_closed():
    table = oracle.support_table(terms.parse("p -> q"), 2)
    assert oracle.down_closed(table, 2)
    assert not oracle.down_closed(1 << 3, 2)  # {0,1} without its subteams


def test_multiset_order():
    assert oracle.multiset_decreased([9], [3, 5])
    assert oracle.multiset_decreased([5, 2], [2, 4, 4])
    assert not oracle.multiset_decreased([3], [3])
    assert not oracle.multiset_decreased([3], [5])


def test_terms_print_and_parse_agree():
    for text in (
        "dn(p) => dn(r) > dn(p) => dn(q) \\/ dn(r)",
        "(dn(p) => dn(q)) \\/ (dn(p) => dn(r))",
        "(Dn(p) > dn(q)) ; dn(p) => dn(r)",
        "F(Fs(p , q) ; Dn(Ph)) |> p ~> q & r",
        "p ~> q ~> r",
        "(p ~> q) ~> r",
        "~(p \\/ q) -> ?r /\\ 0",
    ):
        assert terms.show(terms.parse(text)) == text
    assert terms.parse("p , q , r") == (",", (",", "p", "q"), "r")
    assert terms.parse("p ~> q ~> r") == ("~>", "p", ("~>", "q", "r"))


def test_scripts_round_trip_without_recursion():
    rng = random.Random(0)
    d = gen.id_general(gen.general(rng, rng, 40))
    assert terms.read_script(terms.script(d)) == d
    chain = gen.weakening_chain(["q"] * 1099)  # deeper than the recursion limit
    back = terms.read_script(terms.script(chain))
    assert back[0] == "W" and sum(1 for _ in terms.nodes(back)) == 1100


def test_shape_fixes_cost_and_fill_varies_atoms():
    a = gen.inql(random.Random("shape"), random.Random(1), 31)
    b = gen.inql(random.Random("shape"), random.Random(2), 31)
    assert a != b
    assert _skeleton(a) == _skeleton(b)


def _skeleton(t):
    if isinstance(t, str):
        return t if t == "0" else "v"
    return (t[0],) + tuple(_skeleton(c) for c in t[1:])


def test_generators_hit_their_sizes():
    rng = random.Random(1)
    for n in (25, 200, 2000):
        assert abs(terms.size(gen.general(rng, rng, n)) - n) <= n // 10 + 2
    for n in (5, 31, 61):
        phi = gen.inql(rng, rng, n)
        ops = [t[0] for t in _subterms(phi) if isinstance(t, tuple) and len(t) == 3]
        assert sorted(ops) == sorted(gen.INQ_OPS * (n // 6)) + sorted(gen.INQ_OPS[: n // 2 % 3])
        assert terms.size(phi) == n + (n // 2 + 1) // 4


def _subterms(t):
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, tuple):
            stack.extend(t[1:])


def test_generated_derivations_check():
    sys.path.insert(0, str(BENCH.parent / "src"))
    from inqmt import check_derivation, parse_derivation, reduce_all

    rng = random.Random(2)
    d = gen.id_general(gen.general(rng, rng, 15))
    assert check_derivation(parse_derivation(terms.script(d))).ok
    for f in (("&", "p", "q"), ("dn", "p"), ("=>", ("dn", "p"), ("dn", "q")), "0", "p"):
        cut = parse_derivation(terms.script(gen.principal_cut(f)))
        assert check_derivation(cut).ok
        _, report = reduce_all(cut)
        assert report.steps
    addr = (0, 0)
    broken = check_derivation(parse_derivation(terms.script(gen.plant_break(d, addr))))
    assert not broken.ok and broken.error_addr in (addr, addr[:-1])


def test_calibration_scales_by_the_loops_speed():
    # a unit that took twice its reference time: the machine ran at half speed
    assert calibrate.factor(2 * calibrate.UNIT_S, 1) == 0.5
    meter = calibrate.Meter()
    meter.run_for(0.01)
    seconds, units = meter.take()
    assert units >= 1 and seconds >= 0.01
    assert meter.take() == (0.0, 0)


def test_clock_leaves_out_the_loop():
    meter = calibrate.Meter()
    t0, p0 = meter.clock(), time.perf_counter()
    meter.start()
    try:
        while time.perf_counter() - p0 < 5 * calibrate.PERIOD_S:
            pass
    finally:
        meter.stop()
    seconds, units = meter.take()
    assert units > 0 and seconds == meter.paused
    assert abs((meter.clock() - t0) - (time.perf_counter() - p0 - seconds)) < 1e-3


def test_tail_rank():
    assert tail([1.0, 2.0, 3.0]) == (3.0, 100.0)
    values = [float(i) for i in range(100)]
    assert tail(values) == (89.0, 90.0)  # ten values lie beyond 89


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
