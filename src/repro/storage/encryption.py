"""Page encryption (Section 4's closing paragraph).

When encryption is enabled, the buffer manager hands pages to the OCM (and
hence to the object store) in encrypted form, so neither the locally
cached copies nor the objects at rest can expose user data.

The cipher is a deterministic keystream XOR derived from SHA-256 over
``(key, nonce, counter)`` with a per-page random nonce and an integrity
tag — an AES-CTR+MAC stand-in with the properties that matter here
(confidentiality of cached/stored images, tamper detection, exact
round-trip) without external dependencies.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

_NONCE_BYTES = 16
_TAG_BYTES = 16
_MAGIC = b"EP1"


class EncryptionError(Exception):
    """Bad keys, corrupt or tampered ciphertext."""


class PageEncryptor:
    """Encrypts/decrypts page images with a database-wide key."""

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise EncryptionError("encryption keys must be >= 16 bytes")
        self._key = bytes(key)
        self._counter = 0

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        blocks = []
        for block_no in range((length + 31) // 32):
            blocks.append(
                hashlib.sha256(
                    self._key + nonce + struct.pack(">I", block_no)
                ).digest()
            )
        return b"".join(blocks)[:length]

    def _tag(self, nonce: bytes, ciphertext: bytes) -> bytes:
        return hmac.new(
            self._key, nonce + ciphertext, hashlib.sha256
        ).digest()[:_TAG_BYTES]

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt a page image; output = magic | nonce | tag | body."""
        self._counter += 1
        nonce = hashlib.sha256(
            self._key + struct.pack(">Q", self._counter)
        ).digest()[:_NONCE_BYTES]
        body = bytes(
            a ^ b
            for a, b in zip(plaintext, self._keystream(nonce, len(plaintext)))
        )
        return _MAGIC + nonce + self._tag(nonce, body) + body

    def decrypt(self, payload: bytes) -> bytes:
        """Invert :meth:`encrypt`; raises on tampering or corruption."""
        header = len(_MAGIC) + _NONCE_BYTES + _TAG_BYTES
        if len(payload) < header or not payload.startswith(_MAGIC):
            raise EncryptionError("not an encrypted page image")
        nonce = payload[len(_MAGIC):len(_MAGIC) + _NONCE_BYTES]
        tag = payload[len(_MAGIC) + _NONCE_BYTES:header]
        body = payload[header:]
        if not hmac.compare_digest(tag, self._tag(nonce, body)):
            raise EncryptionError("page integrity check failed")
        return bytes(
            a ^ b for a, b in zip(body, self._keystream(nonce, len(body)))
        )
