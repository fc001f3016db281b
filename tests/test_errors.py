import pickle

import pytest

from breakeven import errors
from breakeven.errors import BreakevenError, CsvParseError, SchemaError, ValidationError


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def example(cls):
    """One instance of ``cls``, built as the package raises it."""
    if cls is SchemaError:
        return cls("model.layer_sizes", "expected a list")
    if cls is CsvParseError:
        return cls(7, "expected 3 columns")
    if issubclass(cls, ValidationError):
        return cls("a bad value", "spectra.top_k")
    return cls("no usable result")


@pytest.mark.parametrize("cls", sorted(set(subclasses(BreakevenError)), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_package_error_survives_a_pickle_round_trip(cls):
    # errors raised in the trainer's helper process reach the run pickled
    assert getattr(errors, cls.__name__) is cls
    exc = example(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert getattr(back, "field", None) == getattr(exc, "field", None)
    assert vars(back) == vars(exc)
