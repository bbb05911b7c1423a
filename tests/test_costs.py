import threading

import numpy as np
import pytest

from plaquepar.costs import (T_RD, CostLedger, count_heuristic,
                             count_rd_reusage, count_reusage, count_standard,
                             estimate_parallel_runtime, format_sweep_table,
                             optimal_processes, ratio_bound,
                             speedup_efficiency, sweep_table_csv)
from plaquepar.errors import ConfigError


# --- closed-form counts ----------------------------------------------------------

def test_count_standard_paper_footer():
    # ODE table, fine-endpoint stopping criterion
    assert count_standard(4, 10, 1000) == 450
    assert count_standard(3, 20, 1000) == 230
    assert count_standard(3, 30, 1000) == 222
    assert count_standard(3, 40, 1000) == 235
    assert count_standard(3, 50, 1000) == 260


def test_count_standard_coarse_criterion_footer():
    assert count_standard(4, 10, 1000) == 450
    assert count_standard(2, 20, 1000) == 160
    assert count_standard(2, 30, 1000) == 158
    assert count_standard(2, 40, 1000) == 170
    assert count_standard(2, 50, 1000) == 190


def test_count_reusage_paper_footer():
    ks = {10: 5, 20: 5, 30: 5, 40: 4, 50: 4, 60: 4, 70: 4}
    expected = {10: 510, 20: 270, 30: 200, 40: 140, 50: 130, 60: 128, 70: 130}
    for P, k in ks.items():
        assert count_reusage(k, P, 1000) == expected[P]
    assert count_reusage(2, 30, 1000) == 98


def test_count_heuristic_values():
    assert count_heuristic(8, 30, 1000) == 272
    assert count_heuristic(8, 50, 1000) == 160
    assert count_heuristic(1, 1000, 1000) == 1


def test_count_rd_reusage():
    assert count_rd_reusage(5, 10, 1000) == 5 * 1100 + 10
    assert count_rd_reusage(1, 1000, 1000) == 1000 + 1 + 1000


def test_count_domain_errors():
    with pytest.raises(ValueError):
        count_standard(0, 10, 1000)
    with pytest.raises(ValueError):
        count_standard(3, 0, 1000)
    with pytest.raises(ValueError):
        count_standard(3, 1001, 1000)
    # unchecked, these returned 19.5, 14.5 and 9
    for count, args, name in ((count_standard, (2.5, 2, 10), "iteration count"),
                              (count_reusage, (3, 2.5, 10), "P"),
                              (count_standard, (True, 2, 10), "iteration count"),
                              (count_standard, (2, 2, 10.0), "N_l")):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            count(*args)
    assert count_standard(np.int64(2), np.int64(2), np.int64(10)) == 16


def test_reusage_always_cheaper_than_standard():
    for k in range(1, 8):
        for P in range(1, 1001, 7):
            assert count_reusage(k, P, 1000) < count_standard(k, P, 1000)


def test_standard_count_minimized_near_sqrt():
    for k in (2, 3, 4, 5):
        counts = [count_standard(k, P, 1000) for P in range(1, 1001)]
        argmin = int(np.argmin(counts)) + 1
        assert 20 <= argmin <= 45  # near sqrt(1000) ~ 31.6


def test_ratio_bound():
    assert ratio_bound(1000) == pytest.approx(16.81, abs=0.01)
    assert ratio_bound(4) == 2.0
    assert ratio_bound(np.int64(4)) == 2.0
    # unchecked, True returned 1.5 and -1 raised a bare math-domain error
    for n_l, match in ((True, "N_l must be an integer"), (4.0, "N_l must be an integer"),
                       (0, "N_l must be an integer >= 1"),
                       (-1, "N_l must be an integer >= 1")):
        with pytest.raises(ConfigError, match=match):
            ratio_bound(n_l)


def test_rd_to_micro_ratio_below_bound():
    for n_l in (100, 1000):
        bound = ratio_bound(n_l)
        for k in range(1, 11):
            for P in range(1, n_l + 1):
                ratio = count_rd_reusage(k, P, n_l) / count_standard(k, P, n_l)
                assert ratio <= bound + 1e-12


# --- speedup / efficiency -----------------------------------------------------------

def test_speedup_efficiency_paper_rows():
    s, e = speedup_efficiency(222, 1000, 30)
    assert round(s, 1) == 4.5 and round(100 * e) == 15
    s, e = speedup_efficiency(128, 1000, 60)
    assert round(s, 1) == 7.8 and round(100 * e) == 13
    s, e = speedup_efficiency(1000, 1000, 1)
    assert s == 1.0 and e == 1.0
    # unchecked, P = 0 raised ZeroDivisionError
    for args, match in (((0, 1000, 1), "micro-problem count must be an integer >= 1"),
                        ((222.0, 1000, 30), "micro-problem count must be an integer"),
                        ((222, 0, 30), "N_l must be an integer >= 1"),
                        ((222, 1000.0, 30), "N_l must be an integer"),
                        ((10, 1000, 0), "P must be an integer >= 1"),
                        ((10, 1000, True), "P must be an integer")):
        with pytest.raises(ConfigError, match=match):
            speedup_efficiency(*args)


def test_optimal_processes():
    assert optimal_processes(1000, "standard") in (31, 32)
    assert optimal_processes(1000, "reusage", k=4) == 63
    assert optimal_processes(4, "standard") == 2
    with pytest.raises(ConfigError) as err:
        optimal_processes(1000, "reusage")
    assert str(err.value) == "iteration count k must be an integer >= 1, got None"
    with pytest.raises(ConfigError) as err:
        optimal_processes(1000, "bogus")
    assert str(err.value) == "mode must be one of ('standard', 'reusage'), got 'bogus'"
    # unchecked, the first returned 1 and the second 50
    for args, kwargs, match in (((True, "standard"), {}, "N_l must be an integer"),
                                ((1000, "reusage"), {"k": 2.5},
                                 "iteration count k must be an integer"),
                                ((0, "standard"), {}, "N_l must be an integer >= 1"),
                                ((1000, "reusage"), {"k": 0},
                                 "iteration count k must be an integer >= 1")):
        with pytest.raises(ConfigError, match=match):
            optimal_processes(*args, **kwargs)


# --- runtime model --------------------------------------------------------------------

def test_measured_recombination():
    assert estimate_parallel_runtime(coarse_seconds=4273.0, fine_max_seconds=2641.0) == 6914.0
    assert estimate_parallel_runtime(coarse_seconds=1096.0, fine_max_seconds=10251.0) == 11347.0
    with pytest.raises(ValueError):
        estimate_parallel_runtime(coarse_seconds=1.0)
    with pytest.raises(ValueError):
        estimate_parallel_runtime()


def test_balanced_synthetic_runtime_identity():
    # uniform cost per fine or coarse step (2 cycles of 50 steps at unit step
    # cost plus one growth solve): estimate = (100 + T_RD) ((k+1)P + k ceil(N_l/P))
    k, P, n_l = 3, 4, 40
    led = CostLedger(P, 50)
    for _ in range(k):
        for p in range(P):
            led.add_fine_sweep(p, [2] * (n_l // P))
        for _ in range(P):
            led.add_coarse_step(2)
    for _ in range(P):  # initialization sweep
        led.add_coarse_step(2)
    est = estimate_parallel_runtime(led)
    assert est == pytest.approx((100.0 + T_RD) * ((k + 1) * P + k * (n_l // P)))


def test_unit_step_cost_counts_cycles():
    led = CostLedger(1, 50)
    led.add_fine_sweep(0, [3])
    led.add_coarse_step(2)
    # one unit per micro step, T_RD per growth solve
    assert led.synthetic_time_fine_max() == 150.0 + T_RD
    assert led.synthetic_time_coarse() == 100.0 + T_RD
    assert estimate_parallel_runtime(led) == (100.0 + T_RD) + (150.0 + T_RD)
    assert estimate_parallel_runtime(CostLedger(1, 50)) == 0.0


# --- ledger -----------------------------------------------------------------------------

def test_ledger_totals_and_serial_equivalent():
    led = CostLedger(3, 50)
    led.add_fine_sweep(0, [2])
    led.add_fine_sweep(2, [2, 3])
    led.add_coarse_step(2)
    led.add_coarse_step(0)  # a coarse growth solve without a micro problem
    assert led.micro_fine == 3
    assert led.per_process_micro == [1, 0, 2]
    assert sum(led.per_process_micro) == led.micro_fine
    assert led.per_process_fsi_steps == [100, 0, 250]
    assert led.micro_coarse == 1 and led.fsi_steps_coarse == 100
    assert led.micro_serial_equivalent == 2 + 1
    # every fine step is one micro problem plus one growth solve
    assert led.rd_fine == 3 and led.per_process_micro == [1, 0, 2]
    assert led.rd_coarse == 2
    assert led.rd_serial_equivalent == 2 + 2


def test_ledger_thread_safety():
    led = CostLedger(4, 50)

    def work(p):
        for _ in range(500):
            led.add_fine_sweep(p, [2])
            led.add_coarse_step(2)
            led.add_message()

    threads = [threading.Thread(target=work, args=(p,)) for p in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert led.micro_fine == 2000
    assert led.per_process_micro == [500] * 4
    assert led.rd_fine == 2000
    assert led.micro_coarse == led.rd_coarse == led.messages == 2000
    assert led.fsi_steps_coarse == 2000 * 100


def test_ledger_validation():
    with pytest.raises(ValueError):
        CostLedger(0, 50)
    # unchecked, 2.5 raised TypeError and True was accepted
    for n, match in ((0, "n_processes must be an integer >= 1"),
                     (2.5, "n_processes must be an integer"),
                     (True, "n_processes must be an integer")):
        with pytest.raises(ConfigError, match=match):
            CostLedger(n, 50)
    # N_s is given once, at construction, by the same integer rule
    for n_steps, match in ((0, "n_steps must be an integer >= 1"),
                           (0.5, "n_steps must be an integer")):
        with pytest.raises(ConfigError, match=match):
            CostLedger(1, n_steps)
    with pytest.raises(TypeError):
        CostLedger()  # the process count has no default
    with pytest.raises(TypeError):
        CostLedger(1)  # nor has N_s
    assert len(CostLedger(np.int64(3), 50).per_process_micro) == 3


# --- table emitters ------------------------------------------------------------------------

def _columns():
    return [
        {"P": 10, "errors": [2.21e-2, 2.24e-3], "mp": 450, "speedup": 2.2,
         "efficiency": 0.22},
        {"P": 30, "errors": [8.12e-3], "mp": 222, "speedup": 4.5,
         "efficiency": 0.15},
    ]


def test_format_sweep_table_marks_best():
    text = format_sweep_table(_columns(), 1000)
    assert "222*" in text       # lowest micro-problem count
    assert "4.5*" in text       # highest speedup
    assert "22%*" in text       # best efficiency
    assert "P=10" in text and "P=30" in text
    lines = text.splitlines()
    assert lines[0].endswith("ref. (serial)")
    # the serial column comes from N_l: no errors, N_l micro problems, speedup
    # and efficiency 1 (the efficiency cell reads 1, not 100%)
    assert [line.split()[-1] for line in lines[2:]] == ["-", "-", "1000", "1", "1"]


def test_failed_column_is_a_marked_cell_and_never_best():
    columns = _columns()
    failed = {"P": 20, "errors": [], "failed": "ChannelClosureError"}
    columns.insert(1, failed)
    lines = format_sweep_table(columns, 1000).splitlines()
    assert lines[0].split()[1:4] == ["P=10", "P=20", "P=30"]
    # the three columns' cells, before the serial reference's
    assert {line.split()[0]: line.split()[-4:-1] for line in lines[2:]} == {
        "1": ["0.0221", "-", "0.00812"],
        "2": ["0.00224", "-", "-"],
        "#": ["450", "ChannelClosureError", "222*"],
        "speedup": ["2.2", "ChannelClosureError", "4.5*"],
        "efficiency": ["22%*", "ChannelClosureError", "15%"],
        "est.": ["-", "ChannelClosureError", "-"],
    }
    csv = sweep_table_csv(columns).splitlines()
    assert csv[0] == "row,P=10,P=20,P=30,best"
    assert csv[1:] == [
        "1,0.0221,,0.00812,",
        "2,0.00224,,,",
        "#_mp,450,ChannelClosureError,222,P=30",
        "speedup,2.2,ChannelClosureError,4.5,P=30",
        "efficiency,0.22,ChannelClosureError,0.15,P=10",
        "est._runtime,,ChannelClosureError,,",
    ]
    # the only column that ran is not marked best
    alone = sweep_table_csv([failed, columns[0]]).splitlines()
    assert all(row.endswith(",") for row in alone[1:])


def test_sweep_table_csv_fields():
    csv = sweep_table_csv(_columns())
    lines = csv.strip().splitlines()
    assert lines[0] == "row,P=10,P=30,best"
    mp_line = [l for l in lines if l.startswith("#_mp")][0]
    assert mp_line.endswith("P=30")
    assert "450" in mp_line and "222" in mp_line
