"""Instance generator: equipment parks, draws, estimates, determinism."""

import hashlib
import random
from fractions import Fraction

import pytest

from photosched.core import save_instance
from photosched.instgen import (
    EQUIPMENT_COUNTS,
    GenConfig,
    ReadyScenario,
    _estimate_and_window,
    _round_half_up,
    due_window,
    equipment,
    estimate_cmax,
    gen_processing,
    gen_ready,
    gen_weights,
    generate_instance,
)


def test_equipment_scenario_sizes():
    park1 = equipment(1)
    park2 = equipment(2)
    assert len(park1) == 22
    assert len(park2) == 12
    for scenario, park in ((1, park1), (2, park2)):
        counts = {}
        for m in park:
            counts[m.tool_class] = counts.get(m.tool_class, 0) + 1
        assert counts == EQUIPMENT_COUNTS[scenario]
    assert [m.id for m in park2 if m.tool_class == "S"] == ["S1", "S2"]


def test_gen_processing_values_and_rates():
    rng = random.Random(0)
    draws = [gen_processing(rng) for _ in range(20000)]
    for p in draws:
        assert p[1] == 20 and p[2] == 75 and p[4] == 30
        assert p[0] in (0, 40) and p[3] in (0, 45) and p[5] in (0, 45)
    rate = lambda i, t: sum(1 for p in draws if p[i] == t) / len(draws)
    assert rate(0, 40) == pytest.approx(0.8, abs=0.02)
    assert rate(3, 45) == pytest.approx(0.2, abs=0.02)
    assert rate(5, 45) == pytest.approx(0.5, abs=0.02)


def test_estimate_cmax():
    # Eleven machines can run the bottleneck expose stage (75) in scenario 1
    # and six in scenario 2; the other stages take 180 in all.
    assert estimate_cmax(5, equipment(1)) == Fraction(3, 2) * (Fraction(5 * 75, 11) + 180)
    assert estimate_cmax(5, equipment(2)) == Fraction(3, 2) * (Fraction(5 * 75, 6) + 180)


def test_round_half_up():
    assert _round_half_up(Fraction(5, 2)) == 3
    assert _round_half_up(Fraction(3, 2)) == 2
    assert _round_half_up(Fraction(7, 5)) == 1
    assert _round_half_up(Fraction(0)) == 0


def test_gen_ready_zero_scenario():
    est = estimate_cmax(5, equipment(1))
    assert gen_ready(random.Random(1), ReadyScenario.ALL_ZERO, est, 5) == [0] * 5


def test_gen_ready_mixed_scenario():
    est = estimate_cmax(10, equipment(1))
    upper = int(Fraction(2, 3) * est)
    for seed in range(50):
        ready = gen_ready(random.Random(seed), ReadyScenario.MIXED_30_70, est, 10)
        assert sum(1 for r in ready if r == 0) >= 3  # 30% released at time zero
        assert all(0 <= r <= upper for r in ready)


def test_gen_ready_zero_count_rounds_half_up():
    est = estimate_cmax(5, equipment(1))
    for seed in range(30):
        ready = gen_ready(random.Random(seed), ReadyScenario.MIXED_30_70, est, 5)
        # 0.3 * 5 = 1.5 rounds to 2 immediate releases.
        assert sum(1 for r in ready if r == 0) >= 2


def test_gen_due_window():
    est = Fraction(1000)
    # T = 0.3 -> mean 700; R = 0.5 -> window [525, 875].
    assert due_window(0.3, 0.5, est) == (525, 875)
    # A wide range factor clamps the lower end at zero.
    assert due_window(0.6, 2.5, est) == (0, 900)


# First 16 hex digits of the SHA-256 of `save_instance`'s file for
# (n, ready, T, R, park, seed): every size, ready scenario, park and both
# levels of T and R.
GOLDEN_INSTANCES = {
    (2, "zero", 0.3, 0.5, 1, 1): "bec2c7560670180b",
    (2, "mixed", 0.6, 2.5, 2, 2): "d83582829e5e8a7a",
    (5, "zero", 0.6, 0.5, 2, 3): "4c7c2cd5129c2bc0",
    (5, "mixed", 0.3, 2.5, 1, 4): "5e3de90334a066ef",
    (5, "mixed", 0.6, 0.5, 1, 5): "6cc26b9a5ea4fd60",
    (15, "zero", 0.3, 2.5, 2, 6): "114b27d66b6d1a4e",
    (15, "mixed", 0.6, 2.5, 1, 7): "bb4e3b7ea347f86c",
    (15, "mixed", 0.3, 0.5, 2, 8): "52c0ba81a4b9071e",
    (25, "zero", 0.6, 2.5, 1, 9): "ef3bec637fc96e95",
    (25, "mixed", 0.3, 0.5, 2, 10): "236778e778ba3d72",
    (25, "mixed", 0.6, 2.5, 2, 11): "f9eac36e9781dda6",
    (25, "zero", 0.3, 0.5, 1, 12): "96c3123467e438ad",
}


@pytest.mark.parametrize("config", sorted(GOLDEN_INSTANCES))
def test_golden_instance_files(tmp_path, config):
    n, ready, T, R, park, seed = config
    path = tmp_path / "instance.json"
    save_instance(generate_instance(GenConfig(n=n, ready_scenario=ReadyScenario(ready),
                                              T=T, R=R, equipment=park, seed=seed)),
                  str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == GOLDEN_INSTANCES[config]


def test_generated_instances_of_a_scenario_share_one_park():
    a, b = (generate_instance(GenConfig(n=3, equipment=1, seed=s)) for s in (1, 2))
    assert a.machines is b.machines
    assert a.machines == tuple(equipment(1))
    assert generate_instance(GenConfig(n=3, equipment=2, seed=1)).machines == tuple(equipment(2))
    park = equipment(1)
    park.pop()
    assert equipment(1) is not park and len(equipment(1)) == 22


def test_cached_estimate_and_window_equal_fresh_arithmetic():
    assert _estimate_and_window.cache_info().maxsize is not None
    for n in (1, 2, 5, 7, 25, 40):
        for mc in (1, 2):
            est = estimate_cmax(n, equipment(mc))
            for T in (0, 0.3, 0.6, 1, Fraction(1, 3)):
                for R in (0, 0.5, 2.5, 10):
                    cached = _estimate_and_window(n, mc, str(T), str(R))
                    assert cached == (est, due_window(T, R, est))


def test_gen_weights_range():
    ws = gen_weights(random.Random(2), 1000)
    assert set(ws) == {1, 2, 3, 4, 5}


def test_generate_instance_deterministic():
    config = GenConfig(n=8, ready_scenario=ReadyScenario.MIXED_30_70,
                       T=0.6, R=2.5, equipment=2, seed=123)
    a = generate_instance(config)
    b = generate_instance(config)
    assert a == b
    c = generate_instance(GenConfig(n=8, ready_scenario=ReadyScenario.MIXED_30_70,
                                    T=0.6, R=2.5, equipment=2, seed=124))
    assert a != c


def test_generate_instance_shape():
    inst = generate_instance(GenConfig(n=4, equipment=1, seed=5))
    assert [j.id for j in inst.jobs] == ["J1", "J2", "J3", "J4"]
    assert len(inst.machines) == 22
    assert all(j.ready == 0 for j in inst.jobs)
    assert all(1 <= j.weight <= 5 for j in inst.jobs)
    assert "n4" in inst.label and "seed5" in inst.label


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n=0, seed=1)
    with pytest.raises(ValueError):
        GenConfig(n=3, equipment=3, seed=1)
    for n in (2.5, "2"):
        with pytest.raises(ValueError, match="^n must be an integer >= 1"):
            GenConfig(n=n, seed=1)
    # 1.0 used to run park 1 but derive another seed and record mc 1.0.
    with pytest.raises(ValueError, match=r"^equipment must be an integer 1 or 2, got 1\.0$"):
        GenConfig(n=2, equipment=1.0)


@pytest.mark.parametrize("field", ["n", "equipment", "T", "R"])
def test_config_rejects_a_bool_for_a_number(field):
    # A bool is an Integral and a Real: a JSON true in a grid used to run
    # as n = 1 or park 1 and be written as True, or fail inside Fraction.
    with pytest.raises(ValueError, match=f"^{field} .*got True$"):
        GenConfig(**{"n": 3, "seed": 1, field: True})


@pytest.mark.parametrize("T", [-0.1, 1.5, float("nan"), float("inf"), "0.3"])
def test_config_rejects_tardiness_factor_outside_unit_interval(T):
    # T = 1.5 used to give every job due date 0; NaN failed inside Fraction.
    with pytest.raises(ValueError, match="^T must be a number in"):
        GenConfig(n=3, T=T, seed=1)


@pytest.mark.parametrize("R", [-1, -1e-9, float("nan"), float("inf"), "0.5"])
def test_config_rejects_negative_or_undefined_due_range(R):
    # R = -1 used to give every job the same due date.
    with pytest.raises(ValueError, match="^R must be"):
        GenConfig(n=3, R=R, seed=1)


@pytest.mark.parametrize("T,R", [(0, 0), (1, 0), (0.6, 2.5), (1.0, 10)])
def test_config_accepts_edges_of_the_due_date_design(T, R):
    instance = generate_instance(GenConfig(n=4, T=T, R=R, seed=3))
    assert all(job.due >= 0 for job in instance.jobs)
