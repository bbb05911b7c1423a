import threading

import numpy as np
import pytest

from plaquepar.costs import (CostLedger, CostModelParams, count_heuristic,
                             count_rd_reusage, count_reusage, count_standard,
                             estimate_parallel_runtime, format_sweep_table,
                             optimal_processes, ratio_bound,
                             speedup_efficiency, sweep_table_csv)


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


def test_optimal_processes():
    assert optimal_processes(1000, "standard") in (31, 32)
    assert optimal_processes(1000, "reusage", k=4) == 63
    assert optimal_processes(4, "standard") == 2
    with pytest.raises(ValueError):
        optimal_processes(1000, "reusage")
    with pytest.raises(ValueError):
        optimal_processes(1000, "bogus")


# --- runtime model --------------------------------------------------------------------

def test_measured_recombination():
    assert estimate_parallel_runtime(coarse_seconds=4273.0, fine_max_seconds=2641.0) == 6914.0
    assert estimate_parallel_runtime(coarse_seconds=1096.0, fine_max_seconds=10251.0) == 11347.0
    with pytest.raises(ValueError):
        estimate_parallel_runtime(coarse_seconds=1.0)
    with pytest.raises(ValueError):
        estimate_parallel_runtime()


def test_balanced_synthetic_runtime_identity():
    # uniform cost per micro problem (2 cycles of 50 steps at unit step cost):
    # estimate = 100 ((k+1)P + k ceil(N_l/P))
    k, P, n_l = 3, 4, 40
    led = CostLedger(P)
    for _ in range(k):
        for p in range(P):
            for _ in range(n_l // P):
                led.add_micro("fine", cycles=2, n_steps=50, process=p)
        for _ in range(P):
            led.add_micro("coarse", cycles=2, n_steps=50)
    for _ in range(P):  # initialization sweep
        led.add_micro("coarse", cycles=2, n_steps=50)
    params = CostModelParams()
    est = estimate_parallel_runtime(led, params)
    assert est == pytest.approx(100.0 * ((k + 1) * P + k * (n_l // P)))


def test_unit_step_cost_counts_cycles():
    led = CostLedger(1)
    led.add_micro("fine", cycles=3, n_steps=50, process=0)
    led.add_micro("coarse", cycles=2, n_steps=50)
    params = CostModelParams()  # one unit per micro step, t_rd = 0.01
    assert led.synthetic_time_fine_max(params) == 150.0
    assert led.synthetic_time_coarse(params) == 100.0
    assert estimate_parallel_runtime(led, params) == 250.0
    assert estimate_parallel_runtime(CostLedger(1), params) == 0.0


def test_cost_model_warns_when_rd_dominates():
    with pytest.warns(UserWarning):
        CostModelParams(fsi_step_cost=5e-4, t_rd=0.01)
    for bad in ({"t_rd": -1.0}, {"t_rd": float("nan")}, {"fsi_step_cost": 0.0},
                {"fsi_step_cost": float("nan")}):
        with pytest.raises(ValueError):
            CostModelParams(**bad)


# --- ledger -----------------------------------------------------------------------------

def test_ledger_totals_and_serial_equivalent():
    led = CostLedger(3)
    led.add_micro("fine", cycles=2, n_steps=50, process=0)
    led.add_micro("fine", cycles=2, n_steps=50, process=2)
    led.add_micro("fine", cycles=3, n_steps=50, process=2)
    led.add_micro("coarse", cycles=2, n_steps=50)
    led.add_rd("fine", process=1)
    led.add_rd("coarse")
    assert led.micro_fine == 3
    assert led.per_process_micro == [1, 0, 2]
    assert sum(led.per_process_micro) == led.micro_fine
    assert led.micro_serial_equivalent == 2 + 1
    assert led.rd_serial_equivalent == 1 + 1


def test_ledger_thread_safety():
    led = CostLedger(4)

    def work(p):
        for _ in range(500):
            led.add_micro("fine", cycles=2, n_steps=50, process=p)
            led.add_rd("fine", process=p)

    threads = [threading.Thread(target=work, args=(p,)) for p in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert led.micro_fine == 2000
    assert led.per_process_micro == [500] * 4
    assert led.rd_fine == 2000


def test_ledger_validation():
    led = CostLedger(1)
    with pytest.raises(ValueError):
        led.add_micro("bogus", cycles=2, n_steps=50)
    with pytest.raises(ValueError):
        led.add_rd("bogus")
    with pytest.raises(ValueError):
        CostLedger(0)


# --- table emitters ------------------------------------------------------------------------

def _columns():
    return [
        {"P": 10, "errors": [2.21e-2, 2.24e-3], "mp": 450, "speedup": 2.2,
         "efficiency": 0.22},
        {"P": 30, "errors": [8.12e-3], "mp": 222, "speedup": 4.5,
         "efficiency": 0.15},
    ]


def test_format_sweep_table_marks_best():
    text = format_sweep_table(_columns(), reference={"# mp": 1000, "speedup": 1.0})
    assert "222*" in text       # lowest micro-problem count
    assert "4.5*" in text       # highest speedup
    assert "22%*" in text       # best efficiency
    assert "P=10" in text and "P=30" in text
    assert "ref. (serial)" in text


def test_sweep_table_csv_fields():
    csv = sweep_table_csv(_columns())
    lines = csv.strip().splitlines()
    assert lines[0] == "row,P=10,P=30,best"
    mp_line = [l for l in lines if l.startswith("#_mp")][0]
    assert mp_line.endswith("P=30")
    assert "450" in mp_line and "222" in mp_line
