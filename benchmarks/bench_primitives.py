"""Micro-benchmarks of the cryptographic and protocol primitives.

Not a figure of the paper, but the foundation of the calibrated projections:
the per-operation costs of Paillier encryption/decryption/exponentiation and
the per-invocation costs of the Section 3 sub-protocols (SM, SSED, SBD, SMIN).
One invocation is a batch of one through each protocol's batch entry point.
Comparing these against the operation-count model is what justifies using the
model to extrapolate the paper-scale figures.
"""

from __future__ import annotations

from random import Random

import pytest

from benchmarks.conftest import MEASURED_KEY_BITS
from repro.crypto.paillier import generate_keypair
from repro.network.party import TwoPartySetting
from repro.protocols.encoding import encrypt_bits
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.smin import SecureMinimum
from repro.protocols.sm import SecureMultiplication
from repro.protocols.ssed import SecureSquaredEuclideanDistance


@pytest.fixture(scope="module")
def primitive_setting(measured_keypair):
    return TwoPartySetting.create(measured_keypair, rng=Random(4242))


@pytest.mark.parametrize("key_size", [256, 512, 1024])
def test_paillier_encryption(benchmark, key_size):
    """One Paillier encryption at each key size the suite uses."""
    keypair = generate_keypair(key_size, Random(key_size + 2))
    benchmark.extra_info.update({"primitive": "encrypt", "key_size": key_size})
    benchmark(lambda: keypair.public_key.encrypt(123456789))


@pytest.mark.parametrize("key_size", [256, 512, 1024])
def test_paillier_decryption(benchmark, key_size):
    """One CRT-accelerated Paillier decryption at each key size."""
    keypair = generate_keypair(key_size, Random(key_size + 3))
    ciphertext = keypair.public_key.encrypt(987654321)
    benchmark.extra_info.update({"primitive": "decrypt", "key_size": key_size})
    benchmark(lambda: keypair.private_key.decrypt(ciphertext))


def test_paillier_homomorphic_addition(benchmark, measured_keypair):
    """Homomorphic addition is a single modular multiplication (cheap)."""
    public = measured_keypair.public_key
    a, b = public.encrypt(1), public.encrypt(2)
    benchmark.extra_info.update({"primitive": "homomorphic_add",
                                 "key_size": MEASURED_KEY_BITS})
    benchmark(lambda: a + b)


def test_paillier_scalar_multiplication(benchmark, measured_keypair):
    """Ciphertext exponentiation by a full-size scalar."""
    public = measured_keypair.public_key
    cipher = public.encrypt(7)
    scalar = public.n - 12345
    benchmark.extra_info.update({"primitive": "scalar_mul",
                                 "key_size": MEASURED_KEY_BITS})
    benchmark(lambda: cipher * scalar)


def test_protocol_sm(benchmark, primitive_setting):
    """One Secure Multiplication invocation (a batch of one pair)."""
    public = primitive_setting.public_key
    enc_a, enc_b = public.encrypt(59), public.encrypt(58)
    protocol = SecureMultiplication(primitive_setting)
    benchmark.extra_info.update({"primitive": "SM", "key_size": MEASURED_KEY_BITS})
    benchmark(lambda: protocol.run_batch([(enc_a, enc_b)]))


@pytest.mark.parametrize("dimensions", [6, 12])
def test_protocol_ssed(benchmark, primitive_setting, dimensions):
    """One SSED invocation at the paper's attribute counts (one record)."""
    public = primitive_setting.public_key
    enc_x = public.encrypt_vector(list(range(dimensions)))
    enc_y = public.encrypt_vector(list(range(dimensions, 2 * dimensions)))
    protocol = SecureSquaredEuclideanDistance(primitive_setting)
    benchmark.extra_info.update({"primitive": "SSED", "m": dimensions,
                                 "key_size": MEASURED_KEY_BITS})
    benchmark(lambda: protocol.run_many(enc_x, [enc_y]))


@pytest.mark.parametrize("bit_length", [6, 12])
def test_protocol_sbd(benchmark, primitive_setting, bit_length):
    """One SBD invocation at the paper's l values (a batch of one)."""
    public = primitive_setting.public_key
    enc_z = public.encrypt(37 % (1 << bit_length))
    protocol = SecureBitDecomposition(primitive_setting, bit_length)
    benchmark.extra_info.update({"primitive": "SBD", "l": bit_length,
                                 "key_size": MEASURED_KEY_BITS})
    benchmark.pedantic(lambda: protocol.run_batch([enc_z]), rounds=3,
                       iterations=1)


@pytest.mark.parametrize("bit_length", [6, 12])
def test_protocol_smin(benchmark, primitive_setting, bit_length):
    """One SMIN invocation at the paper's l values (a batch of one pair)."""
    public = primitive_setting.public_key
    enc_u = encrypt_bits(public, 21 % (1 << bit_length), bit_length)
    enc_v = encrypt_bits(public, 42 % (1 << bit_length), bit_length)
    protocol = SecureMinimum(primitive_setting)
    benchmark.extra_info.update({"primitive": "SMIN", "l": bit_length,
                                 "key_size": MEASURED_KEY_BITS})
    benchmark.pedantic(lambda: protocol.run_batch([(enc_u, enc_v)]),
                       rounds=3, iterations=1)
