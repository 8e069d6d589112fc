#!/usr/bin/env python
"""Compression offload through AvA: the QuickAssist extension target.

Paper §5: "We plan to use AvA to auto-virtualize other accelerator
APIs, including Intel QuickAssist."  This example runs a log-shipping
pipeline (compress → ship → decompress → verify) through the generated
QAT stack in a guest VM, and shows the router's view of the traffic —
including the `shrinks(produced)` spec feature trimming reply payloads
to the useful compressed length.

Run:  python examples/compression_offload.py
"""

from repro.qat import api as qat_api
from repro.remoting.buffers import OutBox
from repro.stack import VirtualStack, load_spec
from repro.workloads.compression import CompressionWorkload, make_corpus


def main():
    spec = load_spec("qat")
    dst = spec.function("cpaDcCompressData").param("dst")
    print(f"QAT spec: {len(spec.functions)} functions; compressed output "
          f"buffer shrinks to {dst.shrinks_to!r} on the wire\n")

    hv = VirtualStack.build("qat").hypervisor
    vm = hv.create_vm("log-shipper")
    qa = vm.library("qat")

    workload = CompressionWorkload(blocks=12, block_kib=128)
    result = workload.run(qa)
    print(f"pipeline verified: {result.verified} ({result.detail})")
    print(f"guest time: {vm.clock.now * 1e3:.3f} ms")

    metrics = hv.router.metrics_for("log-shipper")
    print(f"\nrouter saw {metrics.commands} commands, "
          f"{metrics.payload_bytes:,} payload bytes guest→host")
    print(f"spec-estimated bus bytes: "
          f"{metrics.resources.get('bus_bytes', 0):,.0f}")

    # show what shrinks() saved: compress one block and inspect the reply
    instance = OutBox()
    qa.cpaDcStartInstance(0, instance)
    session = OutBox()
    qa.cpaDcInitSession(instance.value, session, 9,
                        qat_api.CPA_DC_DIR_COMPRESS)
    block = make_corpus(1, 64 * 1024, seed=7)[0]
    out = bytearray(len(block) + 1024)
    produced = OutBox()
    rx_before = vm.driver.transport.rx_bytes
    qa.cpaDcCompressData(session.value, block, len(block), out, len(out),
                         produced)
    reply_bytes = vm.driver.transport.rx_bytes - rx_before
    print(f"\n64 KiB block compressed to {produced.value:,} bytes; the "
          f"reply carried ~{reply_bytes:,} bytes instead of the "
          f"{len(out):,}-byte capacity (shrinks annotation)")


if __name__ == "__main__":
    main()
