"""Dense views of a Matrix that only the tests use."""

from braidrook.linalg import rref


def entries(m):
    """Row-major flattening of m, zeros included."""
    return tuple(x for row in m.to_lists() for x in row)


def rank(m):
    return len(rref(m.to_lists())[1])
