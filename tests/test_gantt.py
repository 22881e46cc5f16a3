"""SVG Gantt rendering."""

import hashlib

from photosched.core import Objective
from photosched.decoder import decode
from photosched.gantt import render_gantt
from photosched.instgen import GenConfig, ReadyScenario, generate_instance
from photosched.search import sp_initial_order


def test_render_gantt_structure():
    inst = generate_instance(GenConfig(n=3, equipment=2, seed=5))
    schedule, _ = decode(inst, sp_initial_order(inst), Objective.CMAX)
    svg = render_gantt(inst, schedule)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    # One labelled lane per machine, one bar per reservation.
    for m in inst.machines:
        assert f">{m.id}</text>" in svg
    n_occupations = sum(
        1 for (job_id, stage), mid in schedule.assign.items()
        if not inst.machine(mid).is_cluster
        or stage == min(s for (j, s), m2 in schedule.assign.items()
                        if j == job_id and m2 == mid))
    assert svg.count("<rect") == n_occupations
    assert ">0</text>" in svg  # time axis origin tick


def test_render_gantt_cluster_bar_spans_whole_reservation():
    inst = generate_instance(GenConfig(n=1, equipment=2, seed=3))
    schedule, _ = decode(inst, sp_initial_order(inst), Objective.CMAX)
    svg = render_gantt(inst, schedule)
    # The cluster reservation is labelled with all its covered stages.
    assert "J1:2+3+5+6" in svg


def test_render_gantt_golden_bytes():
    # n = 5 on park 1 with mixed ready times; the digest pins every lane,
    # bar, label and axis tick up to the horizon.
    inst = generate_instance(GenConfig(n=5, ready_scenario=ReadyScenario.MIXED_30_70,
                                       equipment=1, seed=11))
    schedule, value = decode(inst, sp_initial_order(inst), Objective.CMAX)
    assert value == 383
    svg = render_gantt(inst, schedule)
    assert hashlib.sha256(svg.encode()).hexdigest() == \
        "33082be4598bb49306bdcfa9bbbeaadca3dd5c9ecd9d5f8309439c849c80c180"
