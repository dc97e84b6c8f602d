"""Semantics of the term-map kernels."""

from gvand import kernels


def test_pure_add_cancellation():
    a = {(1, 0): 3, (0, 1): 2}
    b = {(1, 0): -3, (2, 2): 5}
    assert kernels.add_terms(a, b, 0) == {(0, 1): 2, (2, 2): 5}


def test_pure_add_modular():
    a = {(1,): 2}
    b = {(1,): 3}
    assert kernels.add_terms(a, b, 5) == {}
    assert kernels.add_terms(a, b, 7) == {(1,): 5}


def test_pure_mul_small():
    a = {(1, 0): 1, (0, 1): 1}
    out = kernels.mul_terms(a, a, 0)
    assert out == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_pure_addmul_accumulates_in_place():
    acc = {(0, 0): 1}
    result = kernels.addmul_terms(acc, 2, (1, 0), {(0, 1): 3}, 0)
    assert result is acc
    assert acc == {(0, 0): 1, (1, 1): 6}


def test_pure_mul_big_integers():
    big = 10**40
    assert kernels.mul_terms({(1,): big}, {(1,): big}, 0) == {(2,): big * big}
