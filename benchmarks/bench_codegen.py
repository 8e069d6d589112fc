"""§5 developer effort: "a single developer ... in just a few days".

The measurable proxies: how many of the API's parameters CAvA infers
without annotations, how small the hand-written spec is versus the
generated stack, and how fast generation runs (push-button, not
person-years — GvirtuS took ~25,000 hand-written LoC).
"""

from repro.harness.effort import effort_rows, measure_effort
from repro.harness.report import format_table
from repro.codegen.generator import generate_sources
from repro.stack import default_specs_dir, load_spec


def test_codegen_effort_table(once):
    specs = default_specs_dir()
    reports = once(lambda: [
        measure_effort("opencl", specs),
        measure_effort("mvnc", specs),
    ])

    print("\n=== CAvA developer effort (§5) ===")
    print(format_table(
        ["api", "functions", "annotated", "inferred", "spec LoC",
         "generated LoC", "leverage"],
        effort_rows(reports),
    ))
    opencl, mvnc = reports
    print(f"\nOpenCL: {opencl.functions_total} functions "
          f"(paper: 39 commonly used OpenCL functions); "
          f"{opencl.guidance_items} guidance items to review")
    print(f"MVNC:   {mvnc.functions_total} functions "
          f"(the NCSDK MVNC API); {mvnc.guidance_items} guidance items")
    print("comparator: GvirtuS took ~25,000 hand-written LoC and "
          "person-years (paper §2)")

    assert opencl.functions_total == 39
    assert mvnc.functions_total == 13
    # most parameters are inferred, not annotated
    assert opencl.inference_rate >= 0.6
    assert mvnc.inference_rate >= 0.6
    # the generated stack dwarfs the hand-written spec
    assert opencl.leverage >= 3.0
    assert mvnc.leverage >= 3.0
    # and the whole input (spec) is a few hundred lines, not 25k
    assert opencl.spec_loc < 500
    assert mvnc.spec_loc < 200


def test_generation_speed(benchmark):
    """Push-button: regenerating the whole OpenCL stack is sub-second."""
    spec = load_spec("opencl")
    sources = benchmark(generate_sources, spec, "repro.opencl.api")
    assert sources.total_lines() > 500
