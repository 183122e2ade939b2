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
