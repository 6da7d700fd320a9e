#!/usr/bin/env python3
"""Self-tests of the benchmark's checks: each must pass a healthy record and
trip on a planted violation.

    python3 perfbench/test_checks.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402


def healthy_dumbbell():
    C, N, alpha, beta = 20e6, 8, 200e3, 0.5
    r = checks.stationary_rate(C, N, alpha, beta)
    p = checks.stationary_loss(C, N, alpha, beta)
    T = 200
    # Final-stretch arrivals per colour; drops put the total loss at p*.
    green, yellow, red = 16000, 225000, 55000
    red_drops = round(p * (green + yellow + red))
    link = {"arrivals": 100, "drops": 3, "queued": 5, "in_flight": 2, "delivered": 89,
            "corrupted": 1}
    return {
        "flows": N, "video_capacity_bps": C, "alpha_bps": alpha, "beta": beta, "p_thr": 0.75,
        "horizon_s": T, "stretch_from_s": 150,
        "rate_bps": [r * (1 + 0.001 * (i % 3 - 1)) for i in range(N)],
        "sink_bytes": [C / N * T / 8] * N,
        "bottleneck": {
            "green": {"arrivals": 64000, "drops": 0, "stretch_arrivals": green, "stretch_drops": 0},
            "yellow": {"arrivals": 900000, "drops": 600, "stretch_arrivals": yellow,
                       "stretch_drops": 0},
            "red": {"arrivals": 220000, "drops": 165000, "stretch_arrivals": red,
                    "stretch_drops": red_drops},
        },
        "links": [dict(link) for _ in range(4)],
    }


def healthy_population():
    hpr = 4
    # [src host, dst host, start s, start rate, final rate]
    video = [[0, 5, 0.5, 128e3, 9e3], [7, 30, 1.0, 128e3, 8e3]]    # inter-rack
    # Intra-rack flows that saw no loss: +alpha per 0.2 s tick after start.
    video += [[8, 9, 0.1, 128e3, 128e3 + 267 * 99], [13, 14, 1.9, 128e3, 128e3 + 267 * 90]]
    return {
        "hosts_per_rack": hpr, "horizon_s": 20, "min_rate_bps": 1e3, "max_rate_bps": 1e9,
        "alpha_bps": 267.0, "control_interval_s": 0.2,
        "fingerprint": "42", "pool_growth": 0,
        "gamma_min": 0.1, "gamma_max": 0.9, "rate_min": 3e3, "rate_max": 2e6,
        "classes": {"video": {"flows": 4, "sent": 100, "delivered": 60},
                    "mice": {"flows": 1, "sent": 10, "delivered": 10}},
        "core_links": [{"bandwidth_bps": 20e6, "bytes": 20e6 * 20 / 8 - 1000}],
        "video": video,
    }


def healthy_round():
    return {"round": 0, "horizon_s": 8, "monitor_period_s": 0.01,
            "schedules": [{"violation": "", "ticks": 901, "delivered": 5000, "green": 600,
                           "run_s": 0.01, "total_s": 0.012} for _ in range(3)]}


class DumbbellChecks(unittest.TestCase):
    def test_healthy_passes(self):
        v = checks.check_dumbbell(healthy_dumbbell())
        self.assertEqual((v.attempted, v.failed, v.broken), (8, 0, []))

    def test_shifted_r_star_fails_the_flow(self):
        s = healthy_dumbbell()
        s["rate_bps"][3] *= 1.05
        v = checks.check_dumbbell(s)
        self.assertEqual(v.failed, 1)
        self.assertIn("r*", v.failed_ops[0][1])

    def test_all_rates_shifted_fails_every_flow(self):
        s = healthy_dumbbell()
        s["alpha_bps"] *= 2  # the closed form moves, the measured rates do not
        self.assertEqual(checks.check_dumbbell(s).failed, 8)

    def test_broken_conservation(self):
        s = healthy_dumbbell()
        s["links"][2]["delivered"] += 1
        v = checks.check_dumbbell(s)
        self.assertFalse(v.correct)
        self.assertIn("link 2", v.broken[0])

    def test_loss_off_p_star(self):
        s = healthy_dumbbell()
        s["bottleneck"]["red"]["stretch_drops"] += 10000
        self.assertTrue(any("p*" in b for b in checks.check_dumbbell(s).broken))

    def test_green_drop(self):
        s = healthy_dumbbell()
        s["bottleneck"]["green"]["drops"] = 1
        self.assertTrue(any("green" in b for b in checks.check_dumbbell(s).broken))

    def test_yellow_loss(self):
        s = healthy_dumbbell()
        s["bottleneck"]["yellow"]["stretch_drops"] = 5000
        self.assertTrue(any("yellow" in b for b in checks.check_dumbbell(s).broken))

    def test_red_loss_out_of_band(self):
        s = healthy_dumbbell()
        b = s["bottleneck"]
        b["red"]["stretch_drops"] = b["red"]["stretch_arrivals"] // 4
        b["yellow"]["stretch_drops"] = 0
        self.assertTrue(any("red loss" in b for b in checks.check_dumbbell(s).broken))

    def test_unfair_rates(self):
        s = healthy_dumbbell()
        s["rate_bps"] = [1e6, 5e6] * 4
        self.assertTrue(any("Jain" in b for b in checks.check_dumbbell(s).broken))

    def test_sink_above_capacity_share(self):
        s = healthy_dumbbell()
        s["sink_bytes"][0] *= 1.2
        v = checks.check_dumbbell(s)
        self.assertEqual(v.failed, 1)
        self.assertIn("share", v.failed_ops[0][1])


class PopulationChecks(unittest.TestCase):
    def test_healthy_passes(self):
        v = checks.check_population(healthy_population())
        self.assertEqual((v.attempted, v.failed, v.broken, v.known_faults), (4, 0, [], []))

    def test_intra_rack_flow_that_lost_rate_is_reported(self):
        s = healthy_population()
        s["video"][2][4] = 43e3
        v = checks.check_population(s)
        self.assertEqual((v.failed, v.correct), (0, True))
        self.assertEqual(len(v.known_faults), 1)
        self.assertIn("intra-rack", v.known_faults[0])
        self.assertEqual([i for i, _, _ in checks.intra_rack_short(s)], [2])

    def test_intra_rack_flow_above_start_but_below_loss_free_is_reported(self):
        s = healthy_population()
        s["video"][3][4] = 134e3  # grew, but less than a loss-free flow must
        self.assertEqual([i for i, _, _ in checks.intra_rack_short(s)], [3])
        self.assertEqual(len(checks.check_population(s).known_faults), 1)

    def test_loss_free_rate(self):
        # Ticks at 0.2 k s; a flow started at 0.1 s sees 0.2 .. 20.0 (100),
        # the check credits one fewer.
        self.assertAlmostEqual(checks.loss_free_rate(100.0, 1.0, 0.1, 20.0, 0.2), 199.0)
        self.assertAlmostEqual(checks.loss_free_rate(100.0, 1.0, 0.0, 20.0, 0.2), 199.0)

    def test_rate_out_of_bounds_fails(self):
        s = healthy_population()
        s["video"][0][4] = float("nan")
        s["video"][1][4] = 10.0
        self.assertEqual(checks.check_population(s).failed, 2)

    def test_delivered_above_sent(self):
        s = healthy_population()
        s["classes"]["mice"]["delivered"] = 11
        self.assertFalse(checks.check_population(s).correct)

    def test_core_link_above_capacity(self):
        s = healthy_population()
        s["core_links"][0]["bytes"] += 10000
        self.assertFalse(checks.check_population(s).correct)

    def test_gamma_out_of_range(self):
        s = healthy_population()
        s["gamma_max"] = 1.01
        self.assertFalse(checks.check_population(s).correct)

    def test_rate_range_outside_floor(self):
        s = healthy_population()
        s["rate_min"] = 10.0
        self.assertFalse(checks.check_population(s).correct)

    def test_pool_growth_is_reported(self):
        s = healthy_population()
        s["pool_growth"] = 349
        self.assertEqual(len(checks.check_population(s).known_faults), 1)

    def test_unequal_fingerprints(self):
        self.assertTrue(checks.check_fingerprints("42", "42", 2).correct)
        self.assertFalse(checks.check_fingerprints("42", "43", 2).correct)


class CampaignChecks(unittest.TestCase):
    def test_healthy_passes(self):
        v = checks.check_round(healthy_round())
        self.assertEqual((v.attempted, v.failed), (3, 0))

    def test_schedule_with_violation(self):
        r = healthy_round()
        r["schedules"][1]["violation"] = "net.packet_conservation: link 0"
        v = checks.check_round(r)
        self.assertEqual(v.failed, 1)
        self.assertIn("violation", v.failed_ops[0][1])

    def test_task_error(self):
        r = healthy_round()
        r["schedules"][0] = {"error": "std::bad_alloc"}
        self.assertEqual(checks.check_round(r).failed, 1)

    def test_too_few_monitor_ticks(self):
        r = healthy_round()
        r["schedules"][2]["ticks"] = 799
        self.assertEqual(checks.check_round(r).failed, 1)

    def test_no_base_layer(self):
        r = healthy_round()
        r["schedules"][2]["green"] = 0
        self.assertEqual(checks.check_round(r).failed, 1)


class RunLevel(unittest.TestCase):
    def test_empty_run_is_not_correct(self):
        self.assertFalse(checks.check_run({"workload": "campaign", "rounds": []}).correct)

    def test_merges_every_scenario(self):
        doc = {"workload": "dumbbell", "scenarios": [healthy_dumbbell(), healthy_dumbbell()]}
        doc["scenarios"][1]["rate_bps"][0] = 0.0
        v = checks.check_run(doc)
        self.assertEqual((v.attempted, v.failed), (16, 1))


if __name__ == "__main__":
    unittest.main()
