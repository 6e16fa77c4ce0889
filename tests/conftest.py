import pytest

from grassgeo.fields import Fp

FP_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                "__rtruediv__", "__neg__", "__pow__")


@pytest.fixture
def count_fp_operators(monkeypatch):
    """Patches the Fp arithmetic operators when called; returns the list of their names called from then on."""

    def start():
        calls = []
        for name in FP_OPERATORS:
            def counted(*args, _original=getattr(Fp, name), _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(Fp, name, counted)
        Fp(1, 3) * Fp(2, 3)
        assert calls == ["__mul__"]  # the patch is live
        calls.clear()
        return calls

    return start
