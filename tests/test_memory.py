import sys

from tests.memory import traced_peak

PROBE = "traced_peak_import_probe"


def test_first_time_imports_are_left_out(tmp_path, monkeypatch):
    # The module holds 8 MiB from its import on; the call itself allocates 1 MiB.
    (tmp_path / f"{PROBE}.py").write_text("HELD = bytearray(8 << 20)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    calls = []

    def call():
        module = __import__(PROBE)
        calls.append(len(module.HELD))
        return len(bytearray(1 << 20))

    try:
        peak, result = traced_peak(call)
    finally:
        sys.modules.pop(PROBE, None)
    assert 1 << 20 <= peak < 2 << 20
    assert result == 1 << 20 and calls == [8 << 20] * 2


def test_a_call_that_imports_nothing_runs_once():
    calls = []
    peak, result = traced_peak(lambda: calls.append(None) or len(bytearray(1 << 20)))
    assert result == 1 << 20 and len(calls) == 1
    assert 1 << 20 <= peak < 2 << 20
