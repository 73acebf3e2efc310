"""Secure Squared Euclidean Distance (SSED) protocol — Algorithm 2.

P1 holds two attribute-wise encrypted vectors ``Epk(X)`` and ``Epk(Y)``; with
the help of P2 (who holds the secret key) it computes ``Epk(|X - Y|^2)``
without either party learning ``X`` or ``Y``.

The construction is a direct homomorphic evaluation of

    |X - Y|^2 = sum_i (x_i - y_i)^2

where each encrypted difference ``Epk(x_i - y_i)`` is obtained locally by P1
(homomorphic subtraction) and each square is obtained through one invocation
of the Secure Multiplication protocol.  :meth:`SecureSquaredEuclideanDistance.
run_many` evaluates it against many vectors in one round; a single distance is
a scan of one record.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.paillier import Ciphertext
from repro.protocols.base import TwoPartyProtocol, traced_round
from repro.protocols.sm import SecureMultiplication

__all__ = ["SecureSquaredEuclideanDistance"]


class SecureSquaredEuclideanDistance(TwoPartyProtocol):
    """Two-party secure squared Euclidean distance over encrypted vectors."""

    name = "SSED"

    def __init__(self, setting) -> None:
        super().__init__(setting)
        self._sm = SecureMultiplication(setting)

    @traced_round("run_many")
    def run_many(self, enc_x: Sequence[Ciphertext],
                 enc_y_list: Sequence[Sequence[Ciphertext]]
                 ) -> list[Ciphertext]:
        """Compute ``Epk(|X - Y_i|^2)`` against many vectors in one round.

        The vectorized form of the protocols' distance scan (step 2 of
        Algorithms 5 and 6, where ``X`` is the query and the ``Y_i`` are the
        table records).  Two batching effects apply:

        * the shared operand is negated **once per attribute** instead of once
          per (record, attribute) pair — valid because
          ``(x - y)^2 == (y - x)^2``, so every record can reuse ``E(-x_j)``
          in ``E(y_{i,j} - x_j)``; the scan's exponentiation count drops from
          ``3*n*m`` to ``2*n*m + m``; and
        * all ``n*m`` squarings run through one batched SM round instead of
          ``n*m`` sequential two-message exchanges.

        Args:
            enc_x: the shared m-dimensional encrypted vector (the query).
            enc_y_list: the encrypted vectors to compute distances against;
                entries longer than ``m`` are truncated to the leading ``m``
                attributes (trailing label columns do not join the distance).

        Returns:
            ``Epk(|X - Y_i|^2)`` for every ``Y_i``, in input order.
        """
        self.require(len(enc_x) > 0, "vectors must have at least one attribute")
        width = len(enc_x)
        for enc_y in enc_y_list:
            self.require(len(enc_y) >= width,
                         f"dimension mismatch: {len(enc_y)} vs {width}")
        if not enc_y_list:
            return []

        # E(-x_j), hoisted across all records.
        neg_x = self.neg_batch(list(enc_x))
        # E(y_ij - x_j) for every record and attribute (flattened).
        diffs: list[Ciphertext] = []
        for enc_y in enc_y_list:
            diffs.extend(self.pk.add_batch(list(enc_y[:width]), neg_x))
        # E((y_ij - x_j)^2) in one batched round.  With a precomputation
        # engine attached the squaring specialization applies (one engine
        # mask tuple, one decryption and one exponentiation per attribute
        # instead of the generic SM pair costs) — the offline/online split
        # the serving layer's warm pools rely on.
        if self.engine is not None:
            squares = self._sm.run_square_batch(diffs)
        else:
            squares = self._sm.run_batch([(diff, diff) for diff in diffs])
        # Per-record homomorphic accumulation.
        totals: list[Ciphertext] = []
        for index in range(len(enc_y_list)):
            row = squares[index * width:(index + 1) * width]
            total = row[0]
            for enc_square in row[1:]:
                total = total + enc_square
            totals.append(total)
        return totals
