"""Moufang-theorem analog on concrete algebras and the conjecture driver.

The checker asks, for a triple with vanishing Jacobian, whether the
subalgebra it generates is a Lie algebra.  The conjecture driver evaluates
the degree-6 test word J(a,b,(a*b)*(a*c)) in the truncated free algebra of
the variety v and reports the outcome with a certificate; the verdict is
reported, never asserted, since the underlying question is open.
"""

from dataclasses import dataclass

from .algebra import (
    Algebra,
    Element,
    Subspace,
    _kernel_space,
    jacobian,
    restrict,
    subalgebra_generated,
)
from .freealg import (
    CONJECTURE_WORD,
    DEFAULT_RELATION_BUDGET,
    SANITY_WORD,
    FreeQuotient,
    WordValue,
    build_free_quotient,
    conjecture_certificate,
    evaluate_word,
)
from .identities import Classification, get_variety
from .linalg import _scale_to_int, _sparse, add_scaled, format_scalar, render_terms
from .reports import Report, classification_items


@dataclass(frozen=True)
class MoufangReport:
    """Outcome of one hypothesis/conclusion check on a concrete triple.

    The conclusion is evaluated only when the hypothesis holds; otherwise
    the generated subalgebra and the conclusion flag stay None.
    """

    algebra: Algebra
    triple: tuple
    j_value: Element
    hypothesis_holds: bool
    generated: Subspace | None
    restricted: Algebra | None
    conclusion_holds: bool | None


def moufang_check(A: Algebra, x1, x2, x3) -> MoufangReport:
    """Check the triple: J = 0 implies the generated subalgebra is Lie."""
    for x in (x1, x2, x3):
        if x.algebra is not A:
            raise ValueError("triple elements must belong to the given algebra")
    j = jacobian(x1, x2, x3)
    hypothesis = j.is_zero()
    generated = restricted = conclusion = None
    if hypothesis:
        generated = subalgebra_generated([x1, x2, x3])
        restricted = restrict(A, generated, name=f"{A.name}|gen")
        conclusion = next(restricted.iter_jacobians(), None) is None
    return MoufangReport(
        algebra=A,
        triple=(x1, x2, x3),
        j_value=j,
        hypothesis_holds=hypothesis,
        generated=generated,
        restricted=restricted,
        conclusion_holds=conclusion,
    )


def solve_null_triples(A: Algebra, x1, x2) -> Subspace:
    """All x3 with J(x1,x2,x3) = 0: the null space of a linear map.

    The map is formed on the integral twin, with x1 and x2 scaled to
    integers: that scales it by a nonzero constant and keeps its null space.
    x1*x2 is formed once.
    """
    mul = A.integral_twin().mul_sparse
    a, b = (_scale_to_int(_sparse(x.coords)) for x in (x1, x2))
    ab = mul(a, b)
    # one constraint per output coordinate m: the e_m coordinate of
    # J(a, b, e_k) = (a*b)*e_k + (b*e_k)*a + (e_k*a)*b
    cons = {}
    for k in range(A.dim):
        e = {k: 1}
        jac = mul(ab, e)
        add_scaled(jac, mul(mul(b, e), a))
        add_scaled(jac, mul(mul(e, a), b))
        for m, v in jac.items():
            cons.setdefault(m, {})[k] = v
    return _kernel_space(A, cons.values())


def sample_null_triples(A: Algebra, rng, count):
    """Deterministic triples with J(x1,x2,x3) = 0, x3 solved rather than guessed."""
    triples = []
    for _ in range(count):
        x1 = A.element([rng.randint(-3, 3) for _ in range(A.dim)])
        x2 = A.element([rng.randint(-3, 3) for _ in range(A.dim)])
        S = solve_null_triples(A, x1, x2)
        x3 = A.zero()
        for v in S.basis_elements():
            x3 = x3 + rng.randint(-3, 3) * v
        triples.append((x1, x2, x3))
    return triples


def render_moufang(report: MoufangReport, classification: Classification, command) -> Report:
    """The moufang report; `classification` is the ambient algebra's."""
    rep = Report(command)
    rep.add_section("input")
    rep.add("algebra", report.algebra.name)
    for label, el in zip(("x1", "x2", "x3"), report.triple):
        rep.add(label, el)
    rep.add_section("hypothesis")
    rep.add("J(x1,x2,x3)", report.j_value)
    rep.add("holds", "yes" if report.hypothesis_holds else "no")
    rep.add_section("conclusion")
    if report.hypothesis_holds:
        rep.add("generated dimension", report.generated.dim)
        rep.add(
            "generated basis",
            ", ".join(str(e) for e in report.generated.basis_elements()),
        )
        rep.add(
            "Jacobi on generated subalgebra",
            "holds" if report.conclusion_holds else "FAILS",
        )
    else:
        rep.add("status", "not evaluated (hypothesis fails)")
    rep.add_section("ambient memberships")
    for variety, verdict in classification_items(classification):
        rep.add(variety, verdict)
    return rep


def value_text(F: FreeQuotient, value: WordValue):
    return render_terms(
        (F.label(m), value.coords[m]) for m in sorted(value.coords, key=F.rank.get)
    )


def run_conjecture(variant_generators=False, budget=DEFAULT_RELATION_BUDGET) -> Report:
    """Full conjecture run: certificate, sanity lines, and contrast status."""
    cert = conjecture_certificate(budget=budget)
    F = cert.quotient
    command = "conjecture --variant-generators" if variant_generators else "conjecture"
    rep = Report(command)
    rep.add_section("free algebra")
    rep.add("variety", "v")
    rep.add("generators", ", ".join(F.generators))
    rep.add("max degree", F.max_degree)
    rep.add("dims", ", ".join(f"{d}: {n}" for d, n in enumerate(F.dims(), start=1)))
    rep.add_section("word")
    rep.add("text", CONJECTURE_WORD)
    rep.add("degree", cert.value.degree)
    rep.add("value", value_text(F, cert.value))
    rep.add("verdict", cert.verdict)
    rep.add("routes agree", "yes" if cert.routes_agree else "NO")
    rep.add_section("sanity")
    rep.add(SANITY_WORD, value_text(F, cert.sanity))
    Fw = build_free_quotient(get_variety("w"), 3, F.max_degree, budget=budget)
    rep.add(
        f"{CONJECTURE_WORD} in free w",
        value_text(Fw, evaluate_word(Fw, cert.word)),
    )
    rep.add_section("certificate")
    if cert.verdict == "zero":
        rep.add("status", "zero value; combination over degree-6 relation rows below")
        rep.add("rows", len(cert.zero_combination))
        for idx, (coef, desc, _row) in enumerate(cert.zero_combination, start=1):
            rep.add(idx, f"{format_scalar(coef)} * {desc}")
    else:
        rep.add("status", "nonzero value; coordinates below")
        for m in sorted(cert.value.coords, key=F.rank.get):
            rep.add(F.label(m), format_scalar(cert.value.coords[m]))
    if variant_generators:
        # J(x1,x2,(x1*x2)*x3) at x1 = a, x2 = b, x3 = a*c is the word itself,
        # so its value is the certificate's and agrees by construction
        rep.add_section("variant a, b, a*c")
        rep.add("atoms", "x1 = a, x2 = b, x3 = a*c")
        rep.add("word over atoms", "J(x1,x2,(x1*x2)*x3)")
        rep.add("value", value_text(F, cert.value))
        rep.add("verdict", cert.verdict)
        rep.add("agrees with primary framing", "yes")
    rep.add_section("contrast")
    if cert.verdict == "zero":
        rep.add(
            "status",
            "skipped (word value is zero; no failing triple arises from this run)",
        )
    else:
        rep.add("status", "witness triple inside the truncated free algebra")
        rep.add("algebra", f"free v quotient, generators a, b, c, max degree {F.max_degree}")
        rep.add("x1 = a, x2 = b, x3", "a*c")
        rep.add("J(x1,x2,x3)", value_text(F, cert.sanity))
        rep.add("J(a,b,(a*b)*(a*c)) in the generated subalgebra", value_text(F, cert.value))
        rep.add(
            "conclusion",
            "FAILS (hypothesis holds while Jacobi fails on the generated subalgebra)",
        )
    return rep
