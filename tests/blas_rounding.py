"""The BLAS rounding that recorded digests depend on.

Controlled batches evaluate c = bmat @ coefficients with BLAS gemv, which
rounds the last n % 4 rows of an n-row product in a kernel of its own, so
a digest of a controlled batch's bits holds only on a BLAS that rounds
those rows as the one the digest was recorded with.  Tests that compare
against recorded digests call `skip_unless_recorded_gemv` first.
"""

import hashlib

import numpy as np
import pytest

# sha256 of A[:n] @ v for n = 1031..1028 (A, v standard normal from
# default_rng(12345)) on the OpenBLAS build the digests were recorded with
GEMV_FINGERPRINT = "fc443e655ebdefcbc38c2f7b0bb68b83629b3ff75e1315c37a4404dc7f9cfe38"


def gemv_fingerprint() -> str:
    rng = np.random.default_rng(12345)
    a, v = rng.standard_normal((1031, 10)), rng.standard_normal(10)
    digest = hashlib.sha256()
    for n in (1031, 1030, 1029, 1028):
        digest.update((a[:n] @ v).tobytes())
    return digest.hexdigest()


def skip_unless_recorded_gemv():
    if gemv_fingerprint() != GEMV_FINGERPRINT:
        pytest.skip("this BLAS rounds gemv rows differently from the one the "
                    "digests were recorded with")
