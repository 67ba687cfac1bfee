from math import comb

from hypothesis import settings

from altruns.exact_algebra import degree, denominator_degree, series_coefficients

settings.register_profile("package", deadline=None, max_examples=50)
settings.load_profile("package")

# (number, description, passed, detail), filled by test_acceptance.py
ACCEPTANCE_RESULTS = []


def record_criterion(number: int, description: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((number, description, passed, detail))
    assert passed, f"criterion {number:02d} ({description}): {detail}"


def expansion_matches_series(f, pfe) -> bool:
    """Whether the partial fraction expansion pfe sums to f exactly.

    With poles only at f's, of no higher order, f minus the expansion is
    Q/den with deg Q <= max(deg num, deg den + deg poly_part, deg den - 1), so
    the series coefficients through that bound settle whether Q is 0.
    """
    den = dict(f.denominator)
    if not all(1 <= m <= den.get(k, 0) for k, m, _ in pfe.pole_terms):
        return False
    d = denominator_degree(f.denominator)
    top = max(degree(f.numerator), d + degree(pfe.poly_part), d)
    for n, want in enumerate(series_coefficients(f, top)):
        total = pfe.poly_part[n] if n < len(pfe.poly_part) else 0
        for k, m, c in pfe.pole_terms:
            total += c * comb(n + m - 1, m - 1) * k**n  # x**n in c / (1 - k*x)**m
        if total != want:
            return False
    return True


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:02d} {status}  {description}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
