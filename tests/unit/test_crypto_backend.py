"""Tests for the pluggable bigint backend and the fixed-base window tables."""

from __future__ import annotations

from random import Random

import pytest

from repro.crypto.backend import (
    BACKEND_ENV_VAR,
    FixedBaseExp,
    Gmpy2Backend,
    PythonBackend,
    available_backends,
    backend_from_env,
    get_backend,
    resolve_backend,
    set_backend,
)
from repro.exceptions import ConfigurationError, CryptoError


@pytest.fixture(autouse=True)
def restore_backend():
    """Every test leaves the process-wide backend as it found it."""
    yield
    set_backend(None)


class TestBackendSelection:
    def test_python_backend_always_available(self):
        assert "python" in available_backends()

    def test_resolve_python(self):
        assert resolve_backend("python").name == "python"

    def test_resolve_auto_returns_working_backend(self):
        backend = resolve_backend("auto")
        assert backend.name in ("python", "gmpy2")

    def test_resolve_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("mpmath")

    def test_resolve_gmpy2_errors_when_missing(self):
        if "gmpy2" in available_backends():
            assert resolve_backend("gmpy2").name == "gmpy2"
        else:
            with pytest.raises(ConfigurationError):
                resolve_backend("gmpy2")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert backend_from_env().name == "python"

    def test_set_backend_by_name_and_reset(self):
        assert set_backend("python").name == "python"
        assert get_backend().name == "python"
        set_backend(None)  # re-resolve lazily from the environment
        assert get_backend().name in ("python", "gmpy2")

    def test_set_backend_instance(self):
        backend = PythonBackend()
        assert set_backend(backend) is backend


class TestPythonBackendPrimitives:
    def test_powmod_matches_builtin(self):
        backend = PythonBackend()
        assert backend.powmod(7, 130, 1009) == pow(7, 130, 1009)

    def test_mulmod(self):
        backend = PythonBackend()
        assert backend.mulmod(123456, 654321, 997) == (123456 * 654321) % 997

    def test_invert_roundtrip(self):
        backend = PythonBackend()
        inverse = backend.invert(1234, 10007)
        assert (1234 * inverse) % 10007 == 1

    def test_invert_non_invertible_raises(self):
        backend = PythonBackend()
        with pytest.raises(CryptoError):
            backend.invert(6, 9)


@pytest.mark.skipif("gmpy2" not in available_backends(),
                    reason="gmpy2 not importable")
class TestGmpy2BackendPrimitives:
    def test_agrees_with_python_backend(self):
        gmp = Gmpy2Backend()
        py = PythonBackend()
        assert gmp.powmod(7, 130, 1009) == py.powmod(7, 130, 1009)
        assert gmp.mulmod(12345, 67890, 991) == py.mulmod(12345, 67890, 991)
        assert gmp.invert(1234, 10007) == py.invert(1234, 10007)

    def test_invert_non_invertible_raises(self):
        with pytest.raises(CryptoError):
            Gmpy2Backend().invert(6, 9)


class TestFixedBaseExp:
    def test_matches_pow_for_random_exponents(self):
        rng = Random(5)
        modulus = 0xFFFF_FFFB * 0xFFFF_FFEF
        base = rng.randrange(2, modulus)
        comb = FixedBaseExp(base, modulus, max_exponent_bits=64, window=4)
        for _ in range(50):
            exponent = rng.randrange(1 << 64)
            assert comb.pow(exponent) == pow(base, exponent, modulus)

    def test_edge_exponents(self):
        comb = FixedBaseExp(3, 1_000_003, max_exponent_bits=20)
        assert comb.pow(0) == 1
        assert comb.pow(1) == 3
        assert comb.pow((1 << 20) - 1) == pow(3, (1 << 20) - 1, 1_000_003)

    def test_oversized_exponent_rejected(self):
        comb = FixedBaseExp(3, 1_000_003, max_exponent_bits=8)
        with pytest.raises(CryptoError):
            comb.pow(1 << 9)

    def test_negative_exponent_rejected(self):
        comb = FixedBaseExp(3, 1_000_003, max_exponent_bits=8)
        with pytest.raises(CryptoError):
            comb.pow(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CryptoError):
            FixedBaseExp(3, 101, max_exponent_bits=0)
        with pytest.raises(CryptoError):
            FixedBaseExp(3, 101, max_exponent_bits=8, window=0)


class TestScalarMulRegression:
    def test_negative_scalar_reduces_into_zn(self, public_key, private_key):
        """Regression for the identical-branch bug in raw_scalar_mul: a
        negative scalar must follow the N - x convention, not reach pow()."""
        cipher = public_key.encrypt(21)
        assert private_key.decrypt(cipher * -3) == -63
        raw = public_key.raw_scalar_mul(cipher.value, -3)
        assert private_key.decrypt(type(cipher)(public_key, raw)) == -63

    def test_negation_via_inverse_matches_textbook(self, public_key,
                                                   private_key):
        cipher = public_key.encrypt(1234)
        via_inverse = public_key.raw_scalar_mul(cipher.value, -1)
        via_pow = pow(cipher.value, public_key.n - 1, public_key.nsquare)
        decrypt = private_key.decrypt
        assert decrypt(type(cipher)(public_key, via_inverse)) == -1234
        assert decrypt(type(cipher)(public_key, via_pow)) == -1234

    def test_every_negation_takes_the_inverse_once(self, public_key,
                                                   private_key):
        """Each spelling of ``E(-a)`` is the modular inverse of ``E(a)``,
        counts exactly one exponentiation, and decrypts like the textbook
        ``E(a)**(N-1)``."""
        cipher = public_key.encrypt(77)
        ciphertext_type = type(cipher)
        n, nsquare = public_key.n, public_key.nsquare
        inverse = get_backend().invert(cipher.value, nsquare)
        textbook = private_key.decrypt(
            ciphertext_type(public_key, pow(cipher.value, n - 1, nsquare)))
        assert textbook == -77
        # Raw value 1 is the trivial encryption of 0, so 0 - c is exactly -c.
        zero = ciphertext_type(public_key, 1)
        negations = {
            "c * -1": lambda: cipher * -1,
            "-c": lambda: -cipher,
            "c * (N-1)": lambda: cipher * (n - 1),
            "0 - c": lambda: zero - cipher,
            "scalar_mul_batch": lambda: public_key.scalar_mul_batch(
                [cipher], -1)[0],
        }
        for spelling, negate in negations.items():
            before = public_key.counter.exponentiations
            negated = negate()
            assert public_key.counter.exponentiations == before + 1, spelling
            assert negated.value == inverse, spelling
            assert private_key.decrypt(negated) == textbook, spelling
