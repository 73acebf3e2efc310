"""Unit tests for the SM and SSED sub-protocols (Algorithms 1 and 2).

A single multiplication or distance is a batch of one: SM runs through
``run_batch`` with one pair, SSED through ``run_many`` with one record.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.exceptions import ProtocolError
from repro.protocols.sm import SecureMultiplication
from repro.protocols.ssed import SecureSquaredEuclideanDistance


def multiply(protocol, enc_a, enc_b):
    """One SM invocation: a batch of one pair."""
    [product] = protocol.run_batch([(enc_a, enc_b)])
    return product


def distance(protocol, enc_x, enc_y):
    """One SSED invocation: a scan of one record."""
    [total] = protocol.run_many(enc_x, [enc_y])
    return total


class TestSecureMultiplication:
    def test_paper_example_2(self, setting, private_key):
        """Example 2 of the paper: a=59, b=58 must give E(3422)."""
        protocol = SecureMultiplication(setting)
        result = multiply(protocol, setting.public_key.encrypt(59),
                                    setting.public_key.encrypt(58))
        assert private_key.decrypt_raw_residue(result) == 59 * 58

    def test_random_pairs(self, setting, private_key, rng):
        protocol = SecureMultiplication(setting)
        for _ in range(15):
            a = rng.randrange(0, 2**20)
            b = rng.randrange(0, 2**20)
            result = multiply(protocol, setting.public_key.encrypt(a),
                                        setting.public_key.encrypt(b))
            assert private_key.decrypt_raw_residue(result) == a * b

    def test_multiplication_by_zero(self, setting, private_key):
        protocol = SecureMultiplication(setting)
        result = multiply(protocol, setting.public_key.encrypt(0),
                                    setting.public_key.encrypt(12345))
        assert private_key.decrypt_raw_residue(result) == 0

    def test_multiplication_by_one(self, setting, private_key):
        protocol = SecureMultiplication(setting)
        result = multiply(protocol, setting.public_key.encrypt(1),
                                    setting.public_key.encrypt(999))
        assert private_key.decrypt_raw_residue(result) == 999

    def test_bits_multiply_like_and(self, setting, private_key):
        protocol = SecureMultiplication(setting)
        for a in (0, 1):
            for b in (0, 1):
                result = multiply(protocol, setting.public_key.encrypt(a),
                                            setting.public_key.encrypt(b))
                assert private_key.decrypt_raw_residue(result) == (a & b)

    def test_result_is_fresh_ciphertext(self, setting):
        """The output must not equal either input ciphertext (re-randomized)."""
        protocol = SecureMultiplication(setting)
        enc_a = setting.public_key.encrypt(7)
        enc_b = setting.public_key.encrypt(1)
        result = multiply(protocol, enc_a, enc_b)
        assert result.value != enc_a.value
        assert result.value != enc_b.value

    def test_operation_counts_match_model(self, setting):
        """SM costs exactly 3 encryptions, 2 decryptions, 2 exponentiations."""
        protocol = SecureMultiplication(setting)
        result = protocol.run_instrumented(
            protocol.run_batch,
            [(setting.public_key.encrypt(3), setting.public_key.encrypt(4))])
        stats = result.stats
        assert stats.total_encryptions == 3
        assert stats.total_decryptions == 2
        assert stats.total_exponentiations == 2
        assert stats.messages == 2

    def test_p2_only_sees_masked_values(self, setting, private_key):
        """Everything C1 sends during SM decrypts to a masked (random) value.

        With a = b = 0 the masked operands decrypt exactly to the masks; the
        test asserts they are not the trivial value 0, i.e. masking happened.
        """
        protocol = SecureMultiplication(setting)
        multiply(protocol, setting.public_key.encrypt(0),
                           setting.public_key.encrypt(0))
        sent_by_c1 = list(setting.channel.transcript_payloads("C1"))
        assert sent_by_c1, "C1 must have sent the masked operands"
        masked_a, masked_b = sent_by_c1[0]
        values = [private_key.decrypt_raw_residue(c)
                  for c in masked_a + masked_b]
        assert all(value != 0 for value in values)


class TestSecureSquaredEuclideanDistance:
    def test_paper_example_3(self, setting, private_key):
        """Example 3: records t1 and t2 of Table 1 have squared distance 813."""
        protocol = SecureSquaredEuclideanDistance(setting)
        x = [63, 1, 1, 145, 233, 1, 3, 0, 6, 0]
        y = [56, 1, 3, 130, 256, 1, 2, 1, 6, 2]
        result = distance(protocol, setting.public_key.encrypt_vector(x),
                                    setting.public_key.encrypt_vector(y))
        assert private_key.decrypt_raw_residue(result) == 813

    def test_distance_to_self_is_zero(self, setting, private_key):
        protocol = SecureSquaredEuclideanDistance(setting)
        x = [5, 10, 15]
        enc_x = setting.public_key.encrypt_vector(x)
        enc_x_again = setting.public_key.encrypt_vector(x)
        result = distance(protocol, enc_x, enc_x_again)
        assert private_key.decrypt_raw_residue(result) == 0

    def test_symmetry(self, setting, private_key, rng):
        protocol = SecureSquaredEuclideanDistance(setting)
        x = [rng.randrange(100) for _ in range(4)]
        y = [rng.randrange(100) for _ in range(4)]
        d_xy = private_key.decrypt_raw_residue(
            distance(protocol, setting.public_key.encrypt_vector(x),
                               setting.public_key.encrypt_vector(y)))
        d_yx = private_key.decrypt_raw_residue(
            distance(protocol, setting.public_key.encrypt_vector(y),
                               setting.public_key.encrypt_vector(x)))
        assert d_xy == d_yx == sum((a - b) ** 2 for a, b in zip(x, y))

    def test_single_dimension(self, setting, private_key):
        protocol = SecureSquaredEuclideanDistance(setting)
        result = distance(protocol, setting.public_key.encrypt_vector([10]),
                                    setting.public_key.encrypt_vector([3]))
        assert private_key.decrypt_raw_residue(result) == 49

    def test_rejects_dimension_mismatch(self, setting):
        protocol = SecureSquaredEuclideanDistance(setting)
        with pytest.raises(ProtocolError):
            distance(protocol, setting.public_key.encrypt_vector([1, 2]),
                               setting.public_key.encrypt_vector([1]))

    def test_rejects_empty_vectors(self, setting):
        protocol = SecureSquaredEuclideanDistance(setting)
        with pytest.raises(ProtocolError):
            distance(protocol, [], [])

    def test_operation_counts_scale_with_dimensions(self, setting):
        protocol = SecureSquaredEuclideanDistance(setting)
        dims = 5
        x = list(range(dims))
        y = list(range(dims, 2 * dims))
        result = protocol.run_instrumented(
            protocol.run_many, setting.public_key.encrypt_vector(x),
            [setting.public_key.encrypt_vector(y)])
        stats = result.stats
        # m SM invocations: 3m encryptions, 2m decryptions, 3m exponentiations
        # (2m from SM plus m for the homomorphic subtraction).
        assert stats.total_encryptions == 3 * dims
        assert stats.total_decryptions == 2 * dims
        assert stats.total_exponentiations == 3 * dims
