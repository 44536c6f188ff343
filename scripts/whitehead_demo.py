"""End-to-end walk through the Whitehead example.

Prints the Seifert family, the assembled operators, the symbolic slope,
a pointwise table over torsion characters, and the signature/nullity row.
"""

import argparse

from slopelab.characters import Character
from slopelab.datasets import builtin_path
from slopelab.fields import RationalFunctionField
from slopelab.seifert import build_A, build_E, load_presentation, sign_string
from slopelab.slope import signature_nullity, slope_at, slope_symbolic


def matrix_lines(m):
    return ["  [" + ", ".join(x.render() for x in row) + "]" for row in m.entries]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", default="2,3,4,5,6,8,12",
                        help="comma-separated character orders for the table")
    args = parser.parse_args()

    p = load_presentation(builtin_path("whitehead.json"))
    print(f"dataset: {p.label} (mu={p.mu}, n={p.n}, b0={p.b0})")
    for eps, theta in sorted(p.theta.items(), reverse=True):
        print(f"theta[{sign_string(eps)}] = {[list(r) for r in theta]}")
    print(f"kappa = {list(p.kappa)}")

    ctx = RationalFunctionField(p.mu)
    sym = Character.symbolic(p.mu)
    print("\nA(w):")
    print("\n".join(matrix_lines(build_A(p, sym, ctx))))
    print("E(w):")
    print("\n".join(matrix_lines(build_E(p, sym, ctx))))

    sv = slope_symbolic(p)
    print(f"\nsymbolic slope: {sv.kind} = {sv.value.render()}")

    print("\norder  slope        sigma  eta")
    for order in (int(x) for x in args.orders.split(",")):
        omega = Character.root_of_unity(order, (1,))
        point = slope_at(p, omega)
        sig = signature_nullity(p, omega)
        value = point.value.render() if point.is_finite() else point.kind
        print(f"{order:>5}  {value:<11}  {sig.sigma:>5}  {sig.eta:>3}")


if __name__ == "__main__":
    main()
