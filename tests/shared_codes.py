"""Codes that several test files share, each built on first use.

A code is built inside the first test that asks for it, not when a test
file is imported, so a fault in code construction fails a named test
rather than the collection of the whole file.
"""

import functools

from starshift import codes


@functools.cache
def c8() -> codes.BinaryCode:
    """The extended Hamming [8, 4] code."""
    return codes.hamming8_code()


@functools.cache
def e2() -> codes.BinaryCode:
    """The even-weight code of length 2."""
    return codes.even_weight_code(2)
