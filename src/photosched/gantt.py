"""SVG Gantt rendering: one lane per machine, one bar per reservation."""

from typing import List

from .core import Instance, Objective
from .evaluator import Schedule, objective_value, timelines

LANE_HEIGHT = 28
BAR_HEIGHT = 20
LABEL_WIDTH = 70
PX_PER_MINUTE = 3.0
TICK = 60

PALETTE = ["#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
           "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac"]


def render_gantt(instance: Instance, schedule: Schedule) -> str:
    machines = sorted(instance.machines, key=lambda m: m.id)
    horizon = objective_value(instance, schedule, Objective.CMAX)
    width = LABEL_WIDTH + int(horizon * PX_PER_MINUTE) + 20
    height = LANE_HEIGHT * len(machines) + 30
    color = {j.id: PALETTE[i % len(PALETTE)] for i, j in enumerate(instance.jobs)}

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="10">'
    ]
    spans = timelines(instance, schedule)
    for lane, machine in enumerate(machines):
        y = 10 + lane * LANE_HEIGHT
        parts.append(
            f'<text x="2" y="{y + BAR_HEIGHT - 6}">{machine.id}</text>')
        parts.append(
            f'<line x1="{LABEL_WIDTH}" y1="{y + BAR_HEIGHT + 2}" '
            f'x2="{width - 10}" y2="{y + BAR_HEIGHT + 2}" stroke="#ddd"/>')
        for s0, c1, job_id, stages in spans.get(machine.id, []):
            x = LABEL_WIDTH + s0 * PX_PER_MINUTE
            w = max(1.0, (c1 - s0) * PX_PER_MINUTE)
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{BAR_HEIGHT}" '
                f'fill="{color[job_id]}" stroke="#333"/>')
            parts.append(
                f'<text x="{x + 2:.1f}" y="{y + BAR_HEIGHT - 6}" fill="#fff">'
                f'{job_id}:{"+".join(map(str, stages))}</text>')
    # Time axis ticks along the bottom.
    axis_y = 10 + len(machines) * LANE_HEIGHT
    t = 0
    while t <= horizon:
        x = LABEL_WIDTH + t * PX_PER_MINUTE
        parts.append(f'<text x="{x:.1f}" y="{axis_y + 12}" fill="#666">{t}</text>')
        t += TICK
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
