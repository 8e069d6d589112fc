"""Tests for the deployment helper and the ``cava`` CLI workflow."""

import os

import pytest

from repro.codegen.cli import main as cava_main
from repro.stack import VirtualStack, build_stack, default_specs_dir, load_spec


class TestStack:
    def test_specs_dir_located(self):
        directory = default_specs_dir()
        assert os.path.isfile(os.path.join(directory, "opencl.cava"))
        assert os.path.isfile(os.path.join(directory, "cl.h"))

    def test_opencl_spec_has_39_functions(self):
        spec = load_spec("opencl")
        assert len(spec.functions) == 39
        assert spec.validate() == []

    def test_mvnc_spec_has_13_functions(self):
        spec = load_spec("mvnc")
        assert len(spec.functions) == 13
        assert spec.validate() == []

    def test_stack_cached(self):
        assert build_stack("opencl") is build_stack("opencl")

    def test_unknown_api_rejected(self):
        with pytest.raises(KeyError):
            build_stack("directx")

    def test_hypervisor_with_both_apis(self):
        hv = VirtualStack.build("opencl", "mvnc").hypervisor
        vm = hv.create_vm("vm-both")
        assert vm.library("opencl") is not None
        assert vm.library("mvnc") is not None

    def test_duplicate_vm_rejected(self):
        hv = VirtualStack.build("opencl").hypervisor
        hv.create_vm("dup")
        with pytest.raises(ValueError):
            hv.create_vm("dup")

    def test_unknown_transport_rejected(self):
        hv = VirtualStack.build("opencl").hypervisor
        with pytest.raises(ValueError):
            hv.create_vm("vm-t", transport="carrier-pigeon")

    def test_destroy_vm(self):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-d")
        vm.library("opencl").clGetPlatformIDs(1, [None], None)
        assert ("vm-d", "opencl") in hv.workers
        hv.destroy_vm("vm-d")
        assert ("vm-d", "opencl") not in hv.workers


class TestVirtualStackFacade:
    def test_build_add_vm_is_ready_to_call(self):
        session = VirtualStack.build("opencl").add_vm("vm0")
        assert session.lib.clGetPlatformIDs(1, [None], None) == 0
        assert session.time > 0.0

    def test_default_api_is_opencl(self):
        stack = VirtualStack.build()
        assert stack.apis == ["opencl"]

    def test_lib_ambiguous_on_multi_api_stack(self):
        stack = VirtualStack.build("opencl", "mvnc")
        session = stack.add_vm("vm-multi")
        with pytest.raises(ValueError, match="pick one"):
            session.lib
        assert session.library("opencl") is not None
        assert session.library("mvnc") is not None

    def test_sessions_are_tracked(self):
        stack = VirtualStack.build("opencl")
        session = stack.add_vm("vm-a")
        assert stack.session("vm-a") is session
        assert session.vm_id == "vm-a"

    def test_session_shutdown_destroys_vm(self):
        stack = VirtualStack.build("opencl")
        session = stack.add_vm("vm-gone")
        session.lib.clGetPlatformIDs(1, [None], None)
        assert ("vm-gone", "opencl") in stack.hypervisor.workers
        session.shutdown()
        assert ("vm-gone", "opencl") not in stack.hypervisor.workers

    def test_make_hypervisor_is_thin_wrapper(self):
        """The bare hypervisor is the stack's: one factory, not two."""
        stack = VirtualStack.build("opencl", "mvnc")
        assert sorted(stack.hypervisor.apis) == ["mvnc", "opencl"]
        assert stack.add_vm("vm-bare").vm is \
            stack.hypervisor.vms["vm-bare"]

    def test_router_and_admin_report_exposed(self):
        stack = VirtualStack.build("opencl")
        session = stack.add_vm("vm-adm")
        session.lib.clGetPlatformIDs(1, [None], None)
        assert stack.router is stack.hypervisor.router
        report = stack.admin_report()
        assert "vm-adm" in report


class TestCavaCLI:
    def test_infer_writes_preliminary_spec(self, tmp_path, capsys):
        header = os.path.join(default_specs_dir(), "mvnc.h")
        out = tmp_path / "preliminary.cava"
        code = cava_main(["infer", header, "--api", "mvnc", "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert "mvncOpenDevice" in text
        assert "api(mvnc);" in text

    def test_infer_to_stdout(self, capsys):
        header = os.path.join(default_specs_dir(), "mvnc.h")
        assert cava_main(["infer", header, "--api", "mvnc"]) == 0
        assert "mvncLoadTensor" in capsys.readouterr().out

    def test_check_shipped_specs(self, capsys):
        for name in ("opencl", "mvnc"):
            spec = os.path.join(default_specs_dir(), f"{name}.cava")
            assert cava_main(["check", spec]) == 0
        assert "spec OK" in capsys.readouterr().out

    def test_check_invalid_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.cava"
        bad.write_text(
            "api(x);\n"
            "int f(float *out_data) "
            "{ parameter(out_data) { out; buffer(ghost); } }\n"
        )
        assert cava_main(["check", str(bad)]) == 1
        assert "ghost" in capsys.readouterr().out

    def test_generate_produces_three_modules(self, tmp_path, capsys):
        spec = os.path.join(default_specs_dir(), "mvnc.cava")
        out_dir = tmp_path / "gen"
        code = cava_main([
            "generate", spec, "--native", "repro.mvnc.api",
            "-o", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "mvnc_guest.py").exists()
        assert (out_dir / "mvnc_server.py").exists()
        assert (out_dir / "mvnc_routing.py").exists()

    def test_missing_file_reports_error(self, capsys):
        assert cava_main(["check", "/nonexistent.cava"]) == 2
        assert "cava:" in capsys.readouterr().err

    def test_full_workflow_infer_then_generate(self, tmp_path):
        """Figure 2 end-to-end: header → preliminary spec → generate."""
        header = tmp_path / "toy.h"
        header.write_text(
            "#define TOY_SUCCESS 0\n"
            "typedef int toy_status;\n"
            "typedef struct _toy_ctx *toy_ctx;\n"
            "toy_status toyCreate(int flags, toy_ctx *out_ctx);\n"
            "toy_status toyCompute(toy_ctx ctx, const float *data, "
            "int data_size);\n"
            "toy_status toyDestroy(toy_ctx ctx);\n"
        )
        spec_path = tmp_path / "toy.cava"
        assert cava_main(["infer", str(header), "--api", "toy",
                          "-o", str(spec_path)]) == 0
        # splice in the include so handle types resolve on re-parse
        spec_text = spec_path.read_text()
        assert cava_main(["check", str(spec_path)]) == 0
        out_dir = tmp_path / "gen"
        assert cava_main(["generate", str(spec_path), "--native",
                          "toy.native", "-o", str(out_dir)]) == 0
        generated = (out_dir / "toy_guest.py").read_text()
        assert "def toyCreate" in generated
        assert "def toyCompute" in generated


class TestEffortAccounting:
    def test_effort_reports(self):
        from repro.harness.effort import measure_effort

        report = measure_effort("opencl", default_specs_dir())
        assert report.functions_total == 39
        assert report.spec_loc < report.generated_loc
        assert report.leverage > 3.0
        assert 0.5 < report.inference_rate <= 1.0

    def test_mvnc_effort(self):
        from repro.harness.effort import measure_effort

        report = measure_effort("mvnc", default_specs_dir())
        assert report.functions_total == 13
        assert report.inference_rate > 0.5

    def test_count_loc_skips_comments(self):
        from repro.harness.effort import count_loc

        assert count_loc("// c\n\nreal();\n# py\nmore();\n") == 2


class TestCavaEffortAndVerifyCLI:
    def test_effort_subcommand(self, capsys):
        assert cava_main(["effort", "mvnc"]) == 0
        out = capsys.readouterr().out
        assert "mvnc" in out
        assert "leverage" in out


class TestCavaTopFlags:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        from repro.harness.runner import run_virtualized
        from repro.telemetry import Tracer, write_jsonl
        from repro.workloads import KMeansWorkload

        tracer = Tracer()
        run_virtualized(KMeansWorkload(scale=0.1), vm_id="vm-top",
                        tracer=tracer)
        path = tmp_path_factory.mktemp("traces") / "top.jsonl"
        return write_jsonl(tracer.all_spans(), str(path))

    def test_top_percentiles_columns(self, trace_file, capsys):
        assert cava_main(["top", trace_file, "--percentiles"]) == 0
        out = capsys.readouterr().out
        for column in ("p50 us", "p99 us", "p999 us"):
            assert column in out

    def test_top_without_flag_has_no_percentiles(self, trace_file,
                                                 capsys):
        assert cava_main(["top", trace_file]) == 0
        assert "p999 us" not in capsys.readouterr().out

    def test_top_vm_filter_matches(self, trace_file, capsys):
        assert cava_main(["top", trace_file, "--vm", "vm-top"]) == 0
        out = capsys.readouterr().out
        assert "vm-top" in out
        assert "1 VM(s)" in out

    def test_top_vm_filter_no_match(self, trace_file, capsys):
        assert cava_main(["top", trace_file, "--vm", "vm-ghost"]) == 0
        assert "no spans for VM 'vm-ghost'" in capsys.readouterr().out

    def test_top_flags_combined(self, trace_file, capsys):
        assert cava_main(["top", trace_file, "--vm", "vm-top",
                          "--percentiles"]) == 0
        out = capsys.readouterr().out
        assert "p99 us" in out
        assert "vm-top" in out
