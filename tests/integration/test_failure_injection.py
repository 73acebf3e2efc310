"""Failure-injection tests: wrong keys, malformed messages, corrupted state.

The semi-honest model assumes parties follow the protocol, but a production
library still has to fail loudly (not silently return wrong answers) when the
deployment itself is broken: a cloud provisioned with the wrong key, a query
encrypted under a stale public key, ciphertext corruption in transit, or a
domain parameter ``l`` too small for the data.  These tests pin down that
behaviour.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core.cloud import CloudC1, CloudC2, FederatedCloud
from repro.core.roles import DataOwner, QueryClient, ResultShares
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.crypto.paillier import Ciphertext, generate_keypair
from repro.db.datasets import synthetic_uniform
from repro.db.encrypted_table import EncryptedTable
from repro.exceptions import (
    ChannelError,
    ConfigurationError,
    KeyMismatchError,
    ProtocolError,
    QueryError,
)
from repro.network.channel import DuplexChannel


@pytest.fixture()
def small_table():
    return synthetic_uniform(n_records=8, dimensions=2, distance_bits=7, seed=55)


def deploy(table, keypair, seed=1000):
    owner = DataOwner(table, keypair=keypair, rng=Random(seed))
    cloud = FederatedCloud.deploy(keypair, rng=Random(seed + 1))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(keypair.public_key, table.dimensions, rng=Random(seed + 2))
    return cloud, client


class TestWrongKeyMaterial:
    def test_c1_rejects_table_under_foreign_key(self, small_table, small_keypair):
        foreign = generate_keypair(128, Random(123))
        channel = DuplexChannel("C1", "C2")
        c1 = CloudC1(small_keypair.public_key, channel)
        foreign_table = EncryptedTable.encrypt_table(small_table,
                                                     foreign.public_key)
        with pytest.raises(ConfigurationError):
            c1.host_database(foreign_table)

    def test_query_under_foreign_key_fails_loudly(self, small_table, small_keypair):
        """A query encrypted under a stale/foreign key must raise, not mis-answer."""
        cloud, _ = deploy(small_table, small_keypair)
        foreign = generate_keypair(128, Random(321))
        foreign_client = QueryClient(foreign.public_key, small_table.dimensions,
                                     rng=Random(5))
        protocol = SkNNBasic(cloud)
        with pytest.raises(KeyMismatchError):
            protocol.run(foreign_client.encrypt_query([1, 1]), 2)

    def test_cloud_pair_requires_matching_keys(self, small_keypair):
        foreign = generate_keypair(128, Random(77))
        channel = DuplexChannel("C1", "C2")
        c1 = CloudC1(small_keypair.public_key, channel, rng=Random(1))
        c2 = CloudC2(foreign.private_key, channel, rng=Random(2))
        cipher = c1.encrypt(5)
        with pytest.raises(KeyMismatchError):
            c2.decrypt_signed(cipher)


class TestMalformedQueries:
    def test_wrong_arity_rejected_before_any_crypto(self, small_table,
                                                    small_keypair):
        cloud, client = deploy(small_table, small_keypair)
        protocol = SkNNSecure(cloud, distance_bits=7)
        bad_query = [small_keypair.public_key.encrypt(1)] * 5
        with pytest.raises(QueryError):
            protocol.run(bad_query, 1)

    def test_client_validates_arity_at_encryption_time(self, small_table,
                                                       small_keypair):
        _, client = deploy(small_table, small_keypair)
        with pytest.raises(QueryError):
            client.encrypt_query([1, 2, 3])

    def test_k_larger_than_table_rejected(self, small_table, small_keypair):
        cloud, client = deploy(small_table, small_keypair)
        protocol = SkNNSecure(cloud, distance_bits=7)
        with pytest.raises(QueryError):
            protocol.run(client.encrypt_query([1, 1]), len(small_table) + 1)

    def test_querying_before_outsourcing_fails(self, small_keypair):
        cloud = FederatedCloud.deploy(small_keypair, rng=Random(9))
        protocol = SkNNBasic(cloud)
        with pytest.raises(ConfigurationError):
            protocol.run([small_keypair.public_key.encrypt(1)], 1)


class TestDomainViolations:
    def test_distance_domain_too_small_is_detected(self, small_keypair):
        """If l is smaller than the real distances, SkNN_m aborts rather than
        silently returning a wrong neighbor."""
        table = synthetic_uniform(n_records=6, dimensions=2, distance_bits=9,
                                  seed=8)
        cloud, client = deploy(table, small_keypair)
        # Deliberately configure l = 3 although distances go up to ~2**9.
        protocol = SkNNSecure(cloud, distance_bits=3)
        with pytest.raises(ProtocolError):
            protocol.run(client.encrypt_query([0, 0]), 1)

    def test_result_shares_validate_shape(self):
        with pytest.raises(QueryError):
            ResultShares(masks_from_c1=[[1, 2]], masked_values_from_c2=[[1]],
                         modulus=101)
        with pytest.raises(QueryError):
            ResultShares(masks_from_c1=[[1]], masked_values_from_c2=[],
                         modulus=101)


class TestTransportFaults:
    def test_tag_mismatch_detected(self, small_keypair):
        """A message consumed by the wrong protocol step raises immediately."""
        channel = DuplexChannel("C1", "C2")
        channel.send("C1", small_keypair.public_key.encrypt(1),
                     tag="SM.batch_masked_operands")
        with pytest.raises(ChannelError):
            channel.receive("C2", expected_tag="SBD.batch_masked_values")

    def test_corrupted_ciphertext_changes_decryption(self, small_keypair):
        """Bit-flipping a ciphertext in transit yields garbage, not the value."""
        public, private = small_keypair.public_key, small_keypair.private_key
        original = public.encrypt(1234)
        corrupted = Ciphertext(public, original.value ^ (1 << 13))
        assert private.decrypt(corrupted) != 1234

    def test_missing_reply_detected(self, small_keypair):
        channel = DuplexChannel("C1", "C2")
        with pytest.raises(ChannelError):
            channel.receive("C1")
