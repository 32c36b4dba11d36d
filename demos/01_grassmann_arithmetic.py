"""Exact arithmetic in the Grassmann algebra with Laurent coefficients.

Walks through products with Koszul signs, odd derivatives, and the finite
Taylor expansion that powers coordinate substitutions.
"""

from supercech.grassmann import Substitution
from supercech.parsing import parse_element

P = lambda s: parse_element(s, ("x",), 2)

print("== products and signs ==")
t1, t2 = P("theta_1"), P("theta_2")
print("theta_1 * theta_2        =", t1 * t2)
print("theta_2 * theta_1        =", t2 * t1)
print("(x theta_1)(x^-1 theta_1) =", P("x*theta_1") * P("x^-1*theta_1"))

print()
print("== odd derivatives (acting from the left) ==")
e = P("theta_1*theta_2")
print("d/dtheta_1 (theta_1 theta_2) =", e.odd_derivative(1))
print("d/dtheta_2 (theta_1 theta_2) =", e.odd_derivative(2))

print()
print("== substitution expands nilpotent corrections ==")
square = P("x^2")
shifted = square.substitute(Substitution({"x": P("x + theta_1*theta_2")},
                                         {1: t1, 2: t2}, ("x",), 2))
print("x^2 after x -> x + theta_1 theta_2:", shifted)

inverse_target = P("x^-2")
moved = inverse_target.substitute(Substitution({"x": P("1/x + x^2*theta_1*theta_2")},
                                               {1: t1, 2: t2}, ("x",), 2))
print("x^-2 after x -> 1/x + x^2 theta_1 theta_2:", moved)

print()
print("== inverting an element with invertible reduced part ==")
u = P("3*x + theta_1*theta_2")
print("u        =", u)
print("u^-1     =", u.power(-1))
print("u * u^-1 =", u * u.power(-1))
