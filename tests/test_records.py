"""Records declared with ``syntax.frozen``: what a plain frozen dataclass
gives, in slots, with memo slots that start as None."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import weakref

import pytest

import cbpv
from cbpv import cek, cfg, harness, peak
from cbpv.syntax import LetRec, NumV, Prd, VarV, frozen

TAG = {"tag": True}


def _declare(decorate):
    @decorate
    class Rec:
        """A record with a tagged field and a default."""

        a: int = dataclasses.field(metadata=TAG)
        b: tuple
        c: object = None

        def total(self):
            return self.a + len(self.b)

    return Rec


Twin = _declare(dataclasses.dataclass(frozen=True))
Rec = _declare(frozen("_memo", "_other"))


def _both(*args, **kwargs):
    return Twin(*args, **kwargs), Rec(*args, **kwargs)


def test_equality_hash_and_repr_are_the_dataclass_ones():
    for args in [(1, ()), (1, (2, 3), "c"), (0, (), None)]:
        t, r = _both(*args)
        assert r == Rec(*args) and not r != Rec(*args)
        assert hash(r) == hash(t)
        assert repr(r) == repr(t)
        assert r.total() == t.total()
    assert Rec(1, ()) != Rec(2, ())
    assert Rec(1, ()) != Twin(1, ())  # another class
    assert Rec(1, (), "c") == Rec(c="c", b=(), a=1)


def test_fields_metadata_defaults_and_replace():
    assert dataclasses.is_dataclass(Rec) and dataclasses.is_dataclass(Rec(1, ()))
    shape = lambda cls: [(f.name, f.default, dict(f.metadata)) for f in dataclasses.fields(cls)]
    assert shape(Rec) == shape(Twin)
    params = lambda cls: [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert params(Rec) == params(Twin)
    t, r = _both(1, (2,), "c")
    assert dataclasses.replace(r, b=()) == Rec(1, (), "c")
    assert repr(dataclasses.replace(r, a=5)) == repr(dataclasses.replace(t, a=5))
    assert dataclasses.astuple(r) == dataclasses.astuple(t)
    with pytest.raises(TypeError):
        Rec(1)


def test_assignment_raises_frozen_instance_error():
    r = Rec(1, ())
    for name in ("a", "c", "_memo", "anything"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, name)
    assert r == Rec(1, ())


def test_slots_memos_and_weak_references():
    r = Rec(1, ())
    assert not hasattr(r, "__dict__")
    assert Rec.__slots__ == ("a", "b", "c", "_memo", "_other", "__weakref__")
    assert r._memo is None and r._other is None
    object.__setattr__(r, "_memo", "kept")  # how code keeps a memo
    assert r._memo == "kept" and r == Rec(1, ()) and hash(r) == hash(Rec(1, ()))
    assert dataclasses.replace(r)._memo is None
    assert weakref.ref(r)() is r


def test_copies_and_pickles_start_memos_over():
    r = cek.Closure(Prd(VarV("x")), cek.Bind("x", cek.NumC(1), None))
    object.__setattr__(r, "_unloaded", "kept")
    for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert c == r and type(c) is cek.Closure and c._unloaded is None


def test_letrec_still_normalises_its_definitions():
    m = LetRec([["f", Prd(NumV(1))]], Prd(VarV("f")))
    assert m.defs == (("f", Prd(NumV(1))),) and type(m.defs[0]) is tuple
    assert m._fv is None
    with pytest.raises(ValueError):
        LetRec([], Prd(NumV(0)))


def test_the_library_declares_its_memos():
    assert VarV("x")._fv is None
    b = cek.Bind("x", cek.NumC(1), None)
    assert b._flat is None and b._twin is None
    assert cek.Closure(Prd(NumV(0)), None)._unloaded is None
    assert cfg.Cfg(0, {}, None).binders is None  # a default
    assert harness.Report(None, 0).failures == ()
    assert dict(dataclasses.fields(peak.PeakState)[0].metadata) == peak.POSITION


def _library_records():
    for info in pkgutil.iter_modules(cbpv.__path__):
        module = importlib.import_module(f"cbpv.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield cls


def test_no_record_of_the_library_has_a_dict():
    # every record is declared with frozen, so none keeps a __dict__
    records = list(_library_records())
    assert len(records) >= 60
    with_dict = [c.__qualname__ for c in records if hasattr(object.__new__(c), "__dict__")]
    assert with_dict == []
