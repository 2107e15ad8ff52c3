"""Frontend tests: tokenizing, parsing, checking, and the qualifier rules."""

import os

import pytest

from minihello.cli import het
from minihello.frontend import (CheckError, LexError, ParseError, SourceErrors,
                                SourceUnit, check, load_units, parse_package,
                                tokenize)
from minihello.frontend.parser import parse_unit
from minihello.frontend.types import T_INT

from conftest import SAMPLES


def toks(text):
    return tokenize(SourceUnit("t.hlo", text))


def kinds(text):
    return [t.kind for t in toks(text)][:-1]  # drop eof


class TestTokenize:
    def test_group_iterate_line(self):
        got = kinds('hosts.+print("x");')
        assert got == ["hosts", ".+", "ident", "(", "string", ")", ";"]

    def test_empty_text(self):
        assert kinds("") == []

    def test_queued_eval_line(self):
        got = kinds("rtq <=> 1;")
        assert got == ["ident", "<=>", "int", ";"]

    def test_message_post_tokens(self):
        assert "#>" in kinds("rtq #> (this, send(a));")

    def test_augmented_ops_single_tokens(self):
        assert kinds("a += b;") == ["ident", "+=", "ident", ";"]
        assert kinds("a -= b;") == ["ident", "-=", "ident", ";"]
        assert kinds("i++;") == ["ident", "++", ";"]

    def test_comments_and_whitespace_discarded(self):
        assert kinds("// nothing here\n  a // trailing\n") == ["ident"]

    def test_string_escapes(self):
        t = toks(r'"a\n\t\\\""')[0]
        assert t.value == b'a\n\t\\"'

    def test_illegal_character(self):
        with pytest.raises(LexError):
            toks("a @ b")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            toks('"abc')

    def test_locations_track_lines(self):
        ts = toks("a\n  b")
        assert (ts[0].loc.line, ts[0].loc.col) == (1, 1)
        assert (ts[1].loc.line, ts[1].loc.col) == (2, 3)

    def test_non_decimal_digits_are_lex_errors(self):
        for text in ("x = ²;", "x = 12²;", "x = ½;"):
            with pytest.raises(LexError) as exc:
                toks(text)
            assert exc.value.message.startswith("illegal character")
        assert [t.value for t in toks("٣٤")][:-1] == [34]  # decimal, not ASCII

    def test_identifier_rule_below_0x3000(self):
        # an identifier starts with isalpha() or '_' and goes on with
        # isalnum() or '_'; anything else ends it or is another token
        for code in range(0x3000):
            c = chr(code)
            try:
                first = toks(c)[0]
            except LexError:
                first = None
            assert (first is not None and first.kind == "ident") == \
                (c.isalpha() or c == "_"), hex(code)
            try:
                cont = toks("a" + c)[0]
            except LexError:
                cont = None
            assert (cont is not None and cont.text == "a" + c) == \
                (c.isalnum() or c == "_"), hex(code)


class TestParse:
    def test_hello_world_sample(self):
        ast = parse_package(load_units(os.path.join(SAMPLES, "hello_world")))
        assert ast.name == "Hello_world"
        assert [c.name for c in ast.classes] == ["HelloWorld"]
        main = ast.classes[0].methods[0]
        assert main.name == "main"
        assert main.quals == frozenset({"public", "static"})

    def test_shell_world_sample(self):
        ast = parse_package(load_units(os.path.join(SAMPLES, "shell_world")))
        assert ast.name == "shell_world"
        shell = ast.classes[0]
        assert shell.name == "Shell"
        assert {m.name for m in shell.methods} == \
            {"Shell", "main", "run", "send", "rcv", "dump"}

    def test_missing_package_directive(self):
        with pytest.raises(SourceErrors) as exc:
            parse_package([SourceUnit("x.hlo", "class C { }")])
        assert exc.value.diagnostics[0].code == "MissingPackageDirective"

    def test_package_name_mismatch(self):
        units = [SourceUnit("a.hlo", "package p1; class A { }"),
                 SourceUnit("b.hlo", "package p2; class B { }")]
        with pytest.raises(ParseError) as exc:
            parse_package(units)
        assert exc.value.code == "PackageNameMismatch"

    def test_atomic_failure_no_partial_ast(self):
        units = [SourceUnit("a.hlo", "package p; class A { }"),
                 SourceUnit("b.hlo", "package p; class B { oops")]
        with pytest.raises(SourceErrors):
            parse_package(units)

    def test_multi_unit_merge(self):
        units = [SourceUnit("a.hlo", "package p; class A { }"),
                 SourceUnit("b.hlo", "package p; class B { }")]
        ast = parse_package(units)
        assert [c.name for c in ast.classes] == ["A", "B"]

    def test_duplicate_class_rejected(self):
        units = [SourceUnit("a.hlo", "package p; class A { }"),
                 SourceUnit("b.hlo", "package p; class A { }")]
        with pytest.raises(ParseError):
            parse_package(units)

    def test_deterministic_double_parse(self):
        for sample in ("hello_world", "shell_world"):
            units = load_units(os.path.join(SAMPLES, sample))
            assert parse_package(units) == parse_package(units)
        corpus = os.path.join(os.path.dirname(__file__), "corpus")
        for name in sorted(os.listdir(corpus)):
            with open(os.path.join(corpus, name), encoding="utf-8") as f:
                text = f.read()
            try:
                first = parse_package([SourceUnit(name, text)])
            except SourceErrors:
                continue  # corpus entries that fail at parse stage
            assert parse_package([SourceUnit(name, text)]) == first

    def test_enum_without_semicolon(self):
        name, classes = parse_unit(SourceUnit("e.hlo", """
package p;
class E { enum { A = 1, B = 2 * A } }
"""))
        assert classes[0].enums[0].name == "A"

    def test_trailing_class_semicolon_optional(self):
        parse_unit(SourceUnit("s.hlo", "package p; class A { };"))
        parse_unit(SourceUnit("s.hlo", "package p; class A { }"))


def check_text(text):
    return check(parse_package([SourceUnit("t.hlo", text)]))


class TestCheck:
    def test_create_external_on_host(self):
        pkg = check_text("""
package p;
external class Shell {
    external public Shell() {}
    static public void main() {
        host hst = hello("x");
        Shell s = create (hst) Shell();
    }
}
""")
        assert pkg.main == ("Shell", "main")

    def test_create_non_external_rejected(self):
        with pytest.raises(CheckError) as exc:
            check_text("""
package p;
class Local { }
external class M {
    static public void main() {
        host hst = hello("x");
        Local l = create (hst) Local();
    }
}
""")
        assert exc.value.code == "QualifierError"

    def test_ctor_case_fold_warns(self):
        pkg = check_text("""
package p;
external class Shell {
    external public Shell() {}
    static public void main() {
        host h = hello("x");
        Shell s = create (h) shell();
    }
}
""")
        assert any(w.code == "NameCase" for w in pkg.warnings)

    def test_queued_eval_types_as_body(self):
        pkg = check_text("""
package p;
class M {
    static public void main() {
        queue q = create queue();
        int x = q <=> 1;
    }
}
""")
        decl = pkg.ast.classes[0].methods[0].body.stmts[1]
        assert decl.init.ty == T_INT

    def test_iterator_outside_group_rejected(self):
        with pytest.raises(CheckError) as exc:
            check_text("""
package p;
external class C {
    public external iterator void f(copy char[] s) { }
}
""")
        assert exc.value.code == "QualifierError"

    def test_external_method_in_plain_class_rejected(self):
        with pytest.raises(CheckError) as exc:
            check_text("package p; class C { public external void f() { } }")
        assert exc.value.code == "QualifierError"

    def test_message_must_return_void(self):
        with pytest.raises(CheckError) as exc:
            check_text("package p; class C { public message int f() { return 1; } }")
        assert exc.value.code == "QualifierError"

    def test_copy_on_primitive_param_rejected(self):
        with pytest.raises(CheckError) as exc:
            check_text("package p; class C { public void f(copy int x) { } }")
        assert exc.value.code == "QualifierError"

    def test_two_mains_rejected(self):
        with pytest.raises(CheckError) as exc:
            check_text("""
package p;
class A { static public void main() { } }
class B { static public void main() { } }
""")
        assert exc.value.code == "QualifierError"

    def test_bad_main_signature_rejected(self):
        with pytest.raises(CheckError):
            check_text("package p; class A { static public int main() { return 0; } }")

    def test_unknown_name(self):
        with pytest.raises(CheckError) as exc:
            check_text("package p; class A { public void f() { x = 1; } }")
        assert exc.value.code == "UnknownName"

    def test_type_mismatch(self):
        with pytest.raises(CheckError) as exc:
            check_text('package p; class A { public void f() { int x = "s"; } }')
        assert exc.value.code == "TypeError"

    def test_condition_must_be_bool(self):
        with pytest.raises(CheckError) as exc:
            check_text("package p; class A { public void f() { if (1) return; } }")
        assert exc.value.code == "TypeError"

    def test_message_post_requires_message_method(self):
        with pytest.raises(CheckError) as exc:
            check_text("""
package p;
class A {
    public void g() { }
    public void f() {
        queue q = create queue();
        q #> (this, g());
    }
}
""")
        assert exc.value.code == "QualifierError"

    def test_non_external_call_on_external_class_ref_rejected(self):
        # an external-class ref may be remote, so only external methods
        # go through it
        with pytest.raises(CheckError) as exc:
            check_text("""
package p;
external class A {
    external public A() {}
    public void g() { }
    public void f() {
        A other = new A();
        other.g();
    }
}
""")
        assert exc.value.code == "QualifierError"

    def test_non_external_call_fine_on_local_only_class(self):
        # a non-external class instance can never be remote
        check_text("""
package p;
class A {
    public void g() { }
    public void f() {
        A other = new A();
        other.g();
    }
}
""")

    def test_builtin_class_not_redefinable(self):
        with pytest.raises(CheckError):
            check_text("package p; class host_group { }")

    def test_enum_is_class_scoped_constant(self):
        pkg = check_text("""
package p;
class A {
    enum { N = 4 * 3 }
    public int f() { return N; }
}
""")
        assert pkg.class_sigs["A"].enums["N"] == 12

    def test_every_expression_typed(self):
        for sample in ("hello_world", "shell_world"):
            pkg = check(parse_package(load_units(os.path.join(SAMPLES, sample))))
            from minihello.frontend import ast_nodes as A

            untyped = []

            def walk(node):
                if isinstance(node, A.Expr) and node.ty is None:
                    untyped.append(node)
                for attr in vars(node).values():
                    if isinstance(attr, A.Node):
                        walk(attr)
                    elif isinstance(attr, list):
                        for item in attr:
                            if isinstance(item, A.Node):
                                walk(item)

            walk(pkg.ast)
            assert untyped == []

    def test_negative_corpus_files(self):
        corpus = os.path.join(os.path.dirname(__file__), "corpus")
        cases = sorted(f for f in os.listdir(corpus) if f.endswith(".hlo"))
        assert cases, "negative corpus missing"
        for name in cases:
            expected = name.split("__")[0]
            with open(os.path.join(corpus, name), encoding="utf-8") as f:
                text = f.read()
            with pytest.raises((CheckError, ParseError, SourceErrors)) as exc:
                check_text(text)
            err = exc.value
            if isinstance(err, SourceErrors):
                codes = {d.code for d in err.diagnostics}
            else:
                codes = {err.code}
            assert expected in codes, f"{name}: got {codes}"


class TestLvalueRules:
    def test_enum_constant_not_assignable(self):
        with pytest.raises(CheckError) as exc:
            check_text("""
package p;
class A {
    enum { K = 3 }
    public void f() { K = 4; }
}
""")
        assert exc.value.code == "TypeError"

    def test_postincr_requires_int(self):
        with pytest.raises(CheckError):
            check_text("""
package p;
class A { public void f() { bool b = true; b++; } }
""")


class TestHostileInput:
    def test_deep_nesting_clean_diagnostic(self):
        deep = "(" * 500 + "1" + ")" * 500
        with pytest.raises(SourceErrors) as exc:
            check_text(f"package d; class M {{ public int f() {{ return {deep}; }} }}")
        assert "nesting" in exc.value.diagnostics[0].message

    def test_long_flat_concat_chain_parses_iteratively(self):
        # flat operator chains are unaffected by the nesting bound
        chain = " + ".join(['"x"'] * 150)
        check_text(f"package c; class M {{ public void f() {{ char[] s = {chain}; }} }}")

    @pytest.mark.parametrize("body", [
        "return " + "-" * 30_000 + "1;",
        "{" * 30_000 + "}" * 30_000,
        "return " + "+".join(["1"] * 10_000) + ";",
        "return " + "false ? 0 : " * 10_000 + "1;",
        "return this" + ".f" * 10_000 + ";",
    ], ids=["unary-chain", "nested-blocks", "sum-chain", "ternary-chain",
            "field-chain"])
    def test_het_reports_too_deep_trees(self, body, tmp_path, capsys):
        src = tmp_path / "pkg"
        src.mkdir()
        (src / "M.hlo").write_text(
            f"package d; class M {{ M f; public int g() {{ {body} }} }}")
        assert het.main([str(src), "-o", str(tmp_path / "d.rpk")]) == 1
        assert "nesting too deep" in capsys.readouterr().err
