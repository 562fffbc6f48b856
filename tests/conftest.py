import sys
from contextlib import contextmanager

from hypothesis import settings

# Exact-arithmetic properties over bounded integers; wall-clock deadlines
# only add flakiness on loaded CI machines.
settings.register_profile("eventorsion", deadline=None)
settings.load_profile("eventorsion")


@contextmanager
def int_digit_limit(limit):
    """Python's int/str conversion limit set to `limit` (0: none), then restored."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
