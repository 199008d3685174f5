import inspect

import cohres.errors
from cohres.errors import UnknownChannelError


def test_every_error_is_a_value_error():
    classes = [c for _, c in inspect.getmembers(cohres.errors, inspect.isclass)]
    assert len(classes) == 10
    assert all(issubclass(c, ValueError) for c in classes)


def test_unknown_channel_message_is_unquoted():
    assert str(UnknownChannelError("no channel 'x'")) == "no channel 'x'"
    assert isinstance(UnknownChannelError("x"), KeyError)
