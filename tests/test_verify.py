import hashlib

import numpy as np

from schubert_gb import verify


def test_random_codes_built_once_per_run(monkeypatch, small_random_codes):
    calls = []

    def counted():
        calls.append(1)
        return small_random_codes[:2]

    monkeypatch.setattr(verify, "random_codes", counted)
    results = verify.run_checks(only=["capability", "nf"])
    assert calls == [1]  # shared by both sections
    assert all(c.passed for c in results)
    assert verify.run_checks(only=["integrity"]) and calls == [1]  # lazy: never built


def test_random_codes_are_pinned():
    # shapes and int64 bytes of the 25 generators, hashed before the cheap
    # column test was moved ahead of the rank test
    h = hashlib.sha256()
    for code in verify.random_codes():
        h.update(np.asarray(code.generator.shape, dtype=np.int64).tobytes())
        h.update(code.generator.astype(np.int64).tobytes())
    assert h.hexdigest() == "b6bb7761e7326dc63ac9cfba88d8cbe6fe3dd7b2f6cb6192b7d631d6c4523d7a"
