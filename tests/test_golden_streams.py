"""Golden request streams for the synthetic kernel generators.

Each digest is the SHA-256 of the phase stream that a few warps of one
kernel generate at a small fixed geometry and seed: per phase the
compute cycles and wait flag, per request its type, address, decoded
channel/bank/row/column and PIM op.  The digests were recorded before
the generators' hot paths were optimised, so any change to a warp's
stream (and with it every ``SimResult``) fails here at unit-test speed.
"""

import hashlib

import numpy as np
import pytest

from repro.dram.address import AddressMapper, scaled_address_map
from repro.gpu.kernel import KernelInstance, LaunchContext
from repro.workloads import PIM_SUITE, RODINIA

SEED = 1
WARPS = ((0, 0), (0, 1), (1, 0), (1, 3))

GOLDEN = {
    "G1": "d2c5d931bc4915bb60b4466e607639846fc8cb5a5c34b7a4237202d485ab8822",
    "G2": "8b145e1961999f18575af9202b9ede712bae37bb25770f7ef7d790057a73f103",
    "G3": "724611f5b2a4592a58b5b9ed4719325a6aabe5d4668af30742daea5dab318052",
    "G4": "b9c1e395e8ed2e7f1e9ba692564943d1af4c84b8fa7dd0f0249e25d6092a3a86",
    "G5": "1b69845c25ae94e7f8a26487d3e5a4e37e3ba088b41ca86620ba305a483c6eee",
    "G6": "480c15445e1aeeb50aec9e8f546d9842c7868cfdc2856f5a8f5e37e8036490bc",
    "G7": "eb1fd0f55f91829f6bda5cd191391f59613307e80020d3b7f73c02d4616a6f9c",
    "G8": "758d1795d750dc0afd23ac919628f5959994de7a143c58d011e25a70cd299a1e",
    "G9": "cfec119793e536c4a9717c94b1b125c9077a9ad92d180fca7fd0b9671cf64ab2",
    "G10": "60df64ced32316e3554de1b410da6f1ee1a1b8f50614b0f66bcc5c39f879bff7",
    "G11": "f44b7c5e498390db632a588e7fdf84eaf27b191bc7eeb2bb29916d6fd748b291",
    "G12": "e809955fa4fe16c5717fc5d28fc1a6239c4d3377716ef1e1688d6abb5aa03405",
    "G13": "1282536f77da49eec0e6711c4d13622fcd024e2a762e91cd99b62eef7fefd75a",
    "G14": "da049c73891f14e81aab758fe522b0029931e088c345bf2f30446859cf243952",
    "G15": "792e5a240227bf3f2cea495b7e192cce7e3caaf271ae4f0daf0a1cf6f49be83a",
    "G16": "8ed34ffe365cd52c3e4fd4b607d556389ac2363778debe1a43da3fd2f635973f",
    "G17": "275fedf7a6130611bd4efc4a52d5ac93cab111c0e282de17a917ad02b29a93a9",
    "G18": "a9fd06f827e2fb773634664a367d6134890e92d32fd524437d7e9a7ec64490de",
    "G19": "aeaaec7288bf457199767120ad429c032e9aac49bb4c587053e590cd590fed76",
    "G20": "cc6cdb41d41a3bc10188ce127b7856320476faef7425701f21f1d8c3161ef27f",
    "P1": "c587f3057b66d330b82c94da037959b8a25929959b68fd3fabc15941bc45f344",
    "P2": "a2ff8e8367c2d7d3357d69f71a1a54c1695dd21ba57c55a9c17db4ab061f1325",
    "P3": "d9452372ed34eeab3eeead2c3826eaee05b8a3beec5c335f62d17ffa427edc20",
    "P4": "4026b15292184e4e5899709fb72be5243643b13ace08971166ed7e2f0494d475",
    "P5": "9e05804a85b619ef49ccee229bc45746cc0cb7b4b420e88aa96b3bae03c5583a",
    "P6": "a52c0c6d28d539722b9259959de9e78b9e5a78d18927f2fd2426a99114bcedd1",
    "P7": "4df033b96431e02b56b1da85d6a9b6dc95b2a5e7326afd968c4a2eee63c20a7e",
    "P8": "bd964e7fa3f56a40e5a109e07979c6397a6647fef61cfa8df1b2e881701f9f3e",
    "P9": "c587f3057b66d330b82c94da037959b8a25929959b68fd3fabc15941bc45f344",
}


def make_ctx() -> LaunchContext:
    return LaunchContext(
        mapper=AddressMapper(scaled_address_map(4)),
        num_channels=4,
        banks_per_channel=16,
        num_sms=2,
        warps_per_sm=4,
        rng=np.random.default_rng(SEED),
        scale=0.02,
        kernel_id=3,
    )


def stream_digest(spec) -> str:
    instance = KernelInstance(spec, make_ctx(), kernel_id=3, seed=SEED)
    digest = hashlib.sha256()
    for sm_slot, warp in WARPS:
        digest.update(f"warp {sm_slot} {warp}\n".encode())
        for phase in instance.warp_program(sm_slot, warp):
            digest.update(f"phase {phase.compute_cycles} {phase.wait_for_replies}\n".encode())
            for r in phase.requests:
                op = r.pim_op
                op_text = "-" if op is None else f"{op.kind.name}:{op.dst}:{op.src}"
                digest.update(
                    f"{r.type.name} {r.address} {r.kernel_id} {r.channel} {r.bank} "
                    f"{r.row} {r.column} {op_text}\n".encode()
                )
    return digest.hexdigest()


KERNELS = {**RODINIA, **PIM_SUITE}


@pytest.mark.parametrize("kid", sorted(KERNELS, key=lambda k: (k[0], int(k[1:]))))
def test_stream_matches_golden(kid):
    assert stream_digest(KERNELS[kid]) == GOLDEN[kid]


def test_every_kernel_has_a_golden_digest():
    assert set(GOLDEN) == set(KERNELS)
