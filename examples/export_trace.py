"""Export a simulated MeshSlice timeline to Chrome tracing format.

Simulates one transformer block's FC training GeMMs and writes a
``trace.json`` loadable in ``chrome://tracing`` or https://ui.perfetto.dev,
with one track per chip resource (compute core, each ICI link
direction). The interactive view shows exactly the Figure 4 structure:
partial AllGathers racing ahead of the partial GeMMs, the prologue
before the first GeMM, and the epilogue after the last collective.

Run:  python examples/export_trace.py [output.json]
"""

import sys

from repro.autotuner import plan_model
from repro.experiments import run_block
from repro.hw import TPUV4
from repro.mesh import Mesh2D
from repro.models import GPT3_175B
from repro.sim import Trace


def main(path: str = "trace.json") -> None:
    model = GPT3_175B
    mesh = Mesh2D(32, 8)
    plans = plan_model(model, model.tokens(128))
    block = run_block("meshslice", plans, mesh, TPUV4)

    # Concatenate the 12 GeMMs' spans onto one timeline, offsetting
    # each GeMM by the end of the previous one.
    merged = []
    offset = 0.0
    for result in block.results:
        for span in result.spans:
            merged.append(
                span._replace(
                    start=span.start + offset, end=span.end + offset
                )
            )
        offset += result.makespan
    trace = Trace.from_spans(merged)
    trace.write_chrome(path)
    print(
        f"wrote {len(trace.spans)} spans ({offset * 1e3:.2f} ms of simulated "
        f"time) to {path}"
    )
    print("open chrome://tracing or https://ui.perfetto.dev and load it")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "trace.json")
