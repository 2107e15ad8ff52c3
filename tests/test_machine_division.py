"""Division and remainder in compiled bodies. A divisor that is an int
literal, or a negated one, other than 0 and -1 is divided inline; every
other divisor calls `_div` or `_mod`. Both must give the same truncating
64-bit results, and `/ 0` must fault only when it runs. The checker folds
enum constants with the same arithmetic."""

import pytest

from minihello.engine import machine
from minihello.errors import E_ARITHMETIC, EngineError
from minihello.frontend import CheckError, SourceUnit, check, parse_package
from minihello.runpack import compile_package, ir, serialize
from minihello.values import ClassKey

from conftest import compile_text, mesh_scenario, run_task

INT_MIN, INT_MAX = -(1 << 63), (1 << 63) - 1
DIVIDENDS = (INT_MIN, INT_MIN + 1, -7, -6, -1, 0, 1, 6, 7, INT_MAX)
DIVISORS = (1, 2, 3, 7, -1, -2, -3, -7)
CLS = ClassKey("arith", "M")
HELPERS = {"div": machine._div, "mod": machine._mod}


def divisor_node(form: str, d: int):
    if form == "literal":
        return ir.IrInt(d)
    if form == "negated":
        return ir.IrUn("neg", ir.IrInt(-d))
    return ir.IrLocal(1)


def compiled(op: str, divisor):
    """`f(a, d)` returning `a <op> divisor`, compiled as a method body."""
    params = [ir.IrParam("a", ir.TD_INT, False), ir.IrParam("d", ir.TD_INT, False)]
    body = ir.IrBlock([ir.IrReturn(ir.IrBin(op, ir.IrLocal(0), divisor))])
    mc = ir.MethodCode(op, 0, params, ir.TD_INT, False, 2, body)
    fn, suspends = machine.compile_method(mc, CLS, machine.Image(CLS.package, []))
    assert not suspends
    return lambda a, d: fn(None, None, None, a, d)


@pytest.mark.parametrize("op", ["div", "mod"])
@pytest.mark.parametrize("form", ["literal", "negated", "local"])
def test_compiled_division_matches_the_helpers(op, form):
    for d in DIVISORS:
        fn = compiled(op, divisor_node(form, d))
        for a in DIVIDENDS:
            assert fn(a, d) == HELPERS[op](a, d), (a, d)


@pytest.mark.parametrize("form", ["literal", "negated", "local"])
def test_int_min_divided_by_minus_one_wraps(form):
    assert compiled("div", divisor_node(form, -1))(INT_MIN, -1) == INT_MIN
    assert compiled("mod", divisor_node(form, -1))(INT_MIN, -1) == 0


@pytest.mark.parametrize("form", ["literal", "negated", "local"])
def test_truncates_toward_zero(form):
    assert compiled("div", divisor_node(form, 2))(-7, 2) == -3
    assert compiled("mod", divisor_node(form, 2))(-7, 2) == -1
    assert compiled("div", divisor_node(form, -2))(7, -2) == -3
    assert compiled("mod", divisor_node(form, -2))(7, -2) == 1


ZERO_SRC = """
package zero;
class M {
    static public int f(int x, bool go) {
        if (go) { return x / 0; }
        return x % 7 + x / -3;
    }
    static public int g(int x, bool go) {
        if (go) { return x % 0; }
        return 1;
    }
    static public int main(char[][] argv) { return f(9, false); }
}
"""


@pytest.fixture(scope="module")
def zero_scenario():
    scen = mesh_scenario(["solo"])
    fut = scen.run_main("solo", compile_text(ZERO_SRC), ["x"])
    scen.run()
    assert fut.result() == 9 % 7 - 3
    return scen


def static(scen, method: str, args: list):
    return run_task(scen, "solo", lambda e, ctx: e.invoke_static(
        ClassKey("zero", "M"), method, args, ctx))


@pytest.mark.parametrize("method", ["f", "g"])
def test_division_by_zero_faults_only_when_it_runs(zero_scenario, method):
    assert static(zero_scenario, method, [9, False]) == (-1 if method == "f" else 1)
    with pytest.raises(EngineError) as info:
        static(zero_scenario, method, [9, True])
    assert info.value.code == E_ARITHMETIC


def test_a_body_dividing_by_literals_calls_no_helper():
    image = compile_text("""
package lits;
class M {
    static public int f(int x) {
        return x / 7 + x % 3 + x / -2 + x % -5 + (x / 10) % 4;
    }
    static public int g(int x, int d) { return x / d + x % 2; }
    static public int main(char[][] argv) { return f(100); }
}
""")
    code = {mc.name: mc for mc in image.classes[0].methods}
    hashless = machine.Image(CLS.package, image.constants)
    f, _ = machine.compile_method(code["f"], CLS, hashless)
    assert f(None, None, None, 100) == 14 + 1 - 50 + 0 + 2
    assert not {"_div", "_mod"} & set(f.__code__.co_names)
    g, _ = machine.compile_method(code["g"], CLS, hashless)
    assert "_div" in g.__code__.co_names and "_mod" not in g.__code__.co_names


FOLD_SRC = """
package fold;
class M {
    enum { A = 9007199254740993 / 1, C = 9223372036854775807 + 1,
           R = -7 % 2, Q = (0 - 9223372036854775807 - 1) / -1,
           N = -(0 - 9223372036854775807 - 1), P = 4294967296 * 4294967296 }
    static public int main(char[][] argv) {
        if (A != 9007199254740993 / 1) { return 1; }
        if (C != 9223372036854775807 + 1) { return 2; }
        if (R != -7 % 2) { return 3; }
        if (Q != (0 - 9223372036854775807 - 1) / -1) { return 4; }
        if (N != -(0 - 9223372036854775807 - 1)) { return 5; }
        if (P != 4294967296 * 4294967296) { return 6; }
        return 0;
    }
}
"""


def test_enum_constants_fold_as_compiled_code_computes():
    pkg = check(parse_package([SourceUnit("fold.hlo", FOLD_SRC)]))
    assert pkg.class_sigs["M"].enums == {
        "A": 9007199254740993, "C": INT_MIN, "R": -1, "Q": INT_MIN,
        "N": INT_MIN, "P": 0}
    image = compile_package(pkg)
    serialize(image)  # every folded constant fits the image's i64
    scen = mesh_scenario(["solo"])
    fut = scen.run_main("solo", image, ["x"])
    scen.run()
    assert fut.result() == 0


@pytest.mark.parametrize("expr", ["1 / 0", "1 % (2 - 2)"])
def test_enum_division_by_zero_is_a_check_error(expr):
    with pytest.raises(CheckError) as info:
        check(parse_package([SourceUnit(
            "z.hlo", f"package z; class M {{ enum {{ Z = {expr} }} }}")]))
    assert info.value.code == "TypeError"
    assert "division by zero in constant" in str(info.value)
