// Frontend tests: lexer, parser, semantic errors (the built-in String
// included), SSA lowering, and the paper's analysis verdicts on the
// examples/miniparty programs lowered through the frontend.
#include <gtest/gtest.h>

#include "analysis/cycle_analysis.hpp"
#include "analysis/escape_analysis.hpp"
#include "apps/paper_figures.hpp"
#include "frontend/compile.hpp"

namespace rmiopt::frontend {
namespace {

std::string_view src(std::string_view file) {
  return apps::figures::source(file);
}

// ---- lexer ------------------------------------------------------------------

TEST(Lexer, TokenizesKeywordsIdentifiersAndLiterals) {
  const auto toks = lex("remote class Foo { int x2 = 42; double d = 3.5; }");
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, Tok::KwRemote);
  EXPECT_EQ(toks[1].kind, Tok::KwClass);
  EXPECT_EQ(toks[2].kind, Tok::Identifier);
  EXPECT_EQ(toks[2].text, "Foo");
  const auto lit = std::find_if(toks.begin(), toks.end(), [](const Token& t) {
    return t.kind == Tok::IntLiteral;
  });
  ASSERT_NE(lit, toks.end());
  EXPECT_EQ(lit->int_value, 42);
  const auto dbl = std::find_if(toks.begin(), toks.end(), [](const Token& t) {
    return t.kind == Tok::DoubleLiteral;
  });
  ASSERT_NE(dbl, toks.end());
  EXPECT_DOUBLE_EQ(dbl->double_value, 3.5);
  EXPECT_EQ(toks.back().kind, Tok::End);
}

TEST(Lexer, TracksLineAndColumn) {
  const auto toks = lex("class A {\n  int x;\n}");
  EXPECT_EQ(toks[0].loc.line, 1);
  // "int" is on line 2.
  const auto prim = std::find_if(toks.begin(), toks.end(), [](const Token& t) {
    return t.kind == Tok::KwPrim;
  });
  ASSERT_NE(prim, toks.end());
  EXPECT_EQ(prim->loc.line, 2);
  EXPECT_EQ(prim->loc.column, 3);
}

TEST(Lexer, SkipsCommentsAndHandlesOperators) {
  const auto toks = lex("a // line comment\n/* block\ncomment */ <= != &&");
  ASSERT_EQ(toks.size(), 5u);  // a, <=, !=, &&, End
  EXPECT_EQ(toks[1].kind, Tok::Le);
  EXPECT_EQ(toks[2].kind, Tok::NotEq);
  EXPECT_EQ(toks[3].kind, Tok::AndAnd);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_THROW(lex("class A { #bad }"), ParseError);
  EXPECT_THROW(lex("a & b"), ParseError);
  EXPECT_THROW(lex("/* unterminated"), ParseError);
}

// ---- parser -----------------------------------------------------------------

TEST(Parser, ParsesClassStructure) {
  const ProgramAst ast = parse(src("figure5_call_sites.mp"));
  ASSERT_EQ(ast.classes.size(), 5u);
  EXPECT_EQ(ast.classes[0].name, "Base");
  EXPECT_EQ(ast.classes[1].extends, "Base");
  EXPECT_TRUE(ast.classes[4].methods[0].is_static);
  const ClassDecl& work = ast.classes[3];
  EXPECT_TRUE(work.is_remote);
  ASSERT_EQ(work.methods.size(), 1u);
  EXPECT_EQ(work.methods[0].name, "foo");
  ASSERT_EQ(work.methods[0].params.size(), 1u);
  EXPECT_EQ(work.methods[0].params[0].type.base, "Base");
}

TEST(Parser, ParsesArrayTypesAndNewArray) {
  const ProgramAst ast = parse(src("figure2_heap_graph.mp"));
  const ClassDecl& foo = ast.classes[1];
  ASSERT_EQ(foo.fields.size(), 2u);
  EXPECT_EQ(foo.fields[1].type.base, "double");
  EXPECT_EQ(foo.fields[1].type.dims, 3);
  const MethodDecl& main = ast.classes[2].methods[0];
  const Stmt& alloc3d = *main.body[2];  // foo.a = new double[2][3][4];
  EXPECT_EQ(alloc3d.kind, StmtKind::Assign);
  EXPECT_EQ(alloc3d.value->kind, ExprKind::NewArray);
  EXPECT_EQ(alloc3d.value->args.size(), 3u);
}

TEST(Parser, ParsesControlFlowAndCalls) {
  const ProgramAst ast = parse(src("figure14_linked_list.mp"));
  const MethodDecl& bench = ast.classes[2].methods[0];
  // head decl, i decl, while, f decl, call
  ASSERT_EQ(bench.body.size(), 5u);
  EXPECT_EQ(bench.body[2]->kind, StmtKind::While);
  EXPECT_EQ(bench.body[4]->kind, StmtKind::ExprStmt);
  EXPECT_EQ(bench.body[4]->value->kind, ExprKind::Call);
  EXPECT_EQ(bench.body[4]->value->name, "send");
}

TEST(Parser, PrecedenceBindsMulTighter) {
  const ProgramAst ast =
      parse("class A { static void f() { int x = 1 + 2 * 3; } }");
  const Expr& e = *ast.classes[0].methods[0].body[0]->value;
  ASSERT_EQ(e.kind, ExprKind::Binary);
  EXPECT_EQ(e.op, "+");
  EXPECT_EQ(e.rhs->kind, ExprKind::Binary);
  EXPECT_EQ(e.rhs->op, "*");
}

TEST(Parser, ReportsPositionsInErrors) {
  try {
    parse("class A {\n  void f( { }\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos);
  }
  EXPECT_THROW(parse("class A extends { }"), ParseError);
  EXPECT_THROW(parse("class A { int ; }"), ParseError);
  EXPECT_THROW(parse("class"), ParseError);
}

// ---- semantic errors ----------------------------------------------------------

TEST(Sema, RejectsUnknownTypesAndVariables) {
  EXPECT_THROW(compile_source("class A { Missing m; }"), ParseError);
  EXPECT_THROW(
      compile_source("class A { static void f() { x = 1; } }"), ParseError);
  EXPECT_THROW(
      compile_source("class A { static void f() { B.g(); } }"), ParseError);
}

TEST(Sema, RejectsTypeErrors) {
  EXPECT_THROW(compile_source(R"(
    class D { }
    class A { static void f() { int x = new D(); } }
  )"),
               ParseError);
  EXPECT_THROW(compile_source(R"(
    class D { }
    class E { }
    class A { static void f() { D d = new E(); } }
  )"),
               ParseError);
  EXPECT_THROW(compile_source(R"(
    class A { static int f() { return; } }
  )"),
               ParseError);
  EXPECT_THROW(compile_source(R"(
    class A { static void f() { g(1); } static void g() { } }
  )"),
               ParseError);
}

TEST(Sema, SubclassAssignmentIsAllowed) {
  EXPECT_NO_THROW(compile_source(R"(
    class B { }
    class D extends B { }
    class A { static void f() { B b = new D(); } }
  )"));
}

TEST(Sema, StringIsTheRuntimeStringClass) {
  const Unit unit = compile_source(R"(
    remote class S {
      String echo(String s, String[] all) { return s; }
    }
    class A {
      static void f() {
        S srv = new S();
        String[] all = new String[2];
        all[0] = srv.echo(new String(), all);
      }
    }
  )");
  const om::ClassId str = unit.types->string_class();
  const ir::Function& echo = unit.module->function(unit.func("S.echo"));
  EXPECT_EQ(echo.params.at(0), ir::Type::ref(str));
  EXPECT_EQ(echo.ret, ir::Type::ref(str));
  EXPECT_EQ(unit.types->get(echo.params.at(1).class_id).name,
            "[Ljava/lang/String;");
  EXPECT_EQ(unit.cls("String"), str);

  // `new String()` allocates a string: the call's first argument.
  analysis::HeapAnalysis heap(*unit.module);
  heap.run();
  const auto args = heap.remote_arg_sets(unit.site(unit.tag("echo")));
  ASSERT_EQ(args.at(0).size(), 1u);
  EXPECT_EQ(heap.node(*args[0].begin()).cls, str);
}

TEST(Sema, StringCannotBeRedefinedOrExtended) {
  EXPECT_THROW(compile_source("class String { }"), ParseError);
  EXPECT_THROW(compile_source("class S extends String { }"), ParseError);
  EXPECT_THROW(compile_source(R"(
    class A { static void f() { String s = new String(1); } }
  )"),
               ParseError);
}

TEST(Sema, ThisOnlyInRemoteClasses) {
  EXPECT_THROW(compile_source(R"(
    class A {
      int x;
      void f() { this.x = 1; }
    }
  )"),
               ParseError);
  EXPECT_NO_THROW(compile_source(R"(
    remote class A {
      int x;
      void f() { this.x = 1; }
    }
  )"));
}

// ---- lowering ------------------------------------------------------------------

struct Analyzed {
  Unit unit;
  std::unique_ptr<analysis::HeapAnalysis> heap;
  std::unique_ptr<analysis::CycleAnalysis> cycles;
  std::unique_ptr<analysis::EscapeAnalysis> escapes;

  explicit Analyzed(std::string_view source) : unit(compile_source(source)) {
    heap = std::make_unique<analysis::HeapAnalysis>(*unit.module);
    heap->run();
    cycles = std::make_unique<analysis::CycleAnalysis>(*heap);
    escapes = std::make_unique<analysis::EscapeAnalysis>(*heap);
  }

  ir::Module::RemoteCallRef only_site() const {
    const auto sites = unit.module->remote_call_sites();
    RMIOPT_CHECK(sites.size() == 1, "expected exactly one remote call");
    return sites[0];
  }
};

TEST(Lowering, Figure3TupleRuleTerminates) {
  Analyzed a(src("figure3_rmi_loop.mp"));
  // The Data allocation, its parameter and return clones, and the
  // `new Foo()` remote-object allocation.
  EXPECT_EQ(a.heap->node_count(), 4u);
  EXPECT_FALSE(a.escapes->args_reusable(a.only_site()));
}

TEST(Lowering, Figure5PerSitePrecisionSurvivesTheFrontend) {
  Analyzed a(src("figure5_call_sites.mp"));
  const auto sites = a.unit.module->remote_call_sites();
  ASSERT_EQ(sites.size(), 2u);
  const auto args1 = a.heap->remote_arg_sets(sites[0]);
  const auto args2 = a.heap->remote_arg_sets(sites[1]);
  ASSERT_EQ(args1[0].size(), 1u);
  ASSERT_EQ(args2[0].size(), 1u);
  EXPECT_EQ(a.heap->node(*args1[0].begin()).cls, a.unit.cls("Derived1"));
  EXPECT_EQ(a.heap->node(*args2[0].begin()).cls, a.unit.cls("Derived2"));
}

TEST(Lowering, CycleVerdictsMatchPaper) {
  EXPECT_TRUE(Analyzed(src("figure8_aliased_args.mp"))
                  .cycles->callsite_needs_cycle_table(
                      Analyzed(src("figure8_aliased_args.mp")).only_site()));
  Analyzed f9(src("figure9_self_ref.mp"));
  EXPECT_TRUE(f9.cycles->callsite_needs_cycle_table(f9.only_site()));
  Analyzed f12(src("figure12_array_bench.mp"));
  EXPECT_FALSE(f12.cycles->callsite_needs_cycle_table(f12.only_site()));
  Analyzed f14(src("figure14_linked_list.mp"));
  EXPECT_TRUE(f14.cycles->callsite_needs_cycle_table(f14.only_site()));
}

TEST(Lowering, EscapeVerdictsMatchPaper) {
  Analyzed f10(src("figure10_reusable.mp"));
  EXPECT_TRUE(f10.escapes->args_reusable(f10.only_site()));
  Analyzed f11(src("figure11_escape.mp"));
  EXPECT_FALSE(f11.escapes->args_reusable(f11.only_site()));
  Analyzed f12(src("figure12_array_bench.mp"));
  EXPECT_TRUE(f12.escapes->args_reusable(f12.only_site()));
  Analyzed f14(src("figure14_linked_list.mp"));
  EXPECT_TRUE(f14.escapes->args_reusable(f14.only_site()));
}

TEST(Lowering, WebserverModelFromSourceMatchesPaperSection54) {
  Analyzed a(src("webserver.mp"));
  const auto site = a.only_site();
  EXPECT_FALSE(a.cycles->callsite_needs_cycle_table(site));
  EXPECT_TRUE(a.escapes->args_reusable(site));
  EXPECT_TRUE(a.escapes->return_reusable(site));
}

TEST(Lowering, SuperoptModelFromSourceMatchesPaperSection53) {
  Analyzed a(src("superopt.mp"));
  const auto site = a.only_site();
  EXPECT_FALSE(a.cycles->callsite_needs_cycle_table(site));
  EXPECT_FALSE(a.escapes->args_reusable(site));  // queued: escapes
}

TEST(Lowering, LuModelFromSourceMatchesPaperSection52) {
  const Unit unit = compile_source(src("lu.mp"));
  analysis::HeapAnalysis heap(*unit.module);
  heap.run();
  analysis::CycleAnalysis cycles(heap);
  analysis::EscapeAnalysis escapes(heap);

  const auto flush_tags = unit.tags_for("LU.flush");
  const auto fetch_tags = unit.tags_for("LU.fetch_row");
  const auto barrier_tags = unit.tags_for("LU.barrier");
  ASSERT_EQ(flush_tags.size(), 1u);
  ASSERT_EQ(fetch_tags.size(), 1u);
  ASSERT_EQ(barrier_tags.size(), 1u);

  EXPECT_FALSE(cycles.callsite_needs_cycle_table(unit.site(flush_tags[0])));
  EXPECT_TRUE(escapes.args_reusable(unit.site(flush_tags[0])));
  EXPECT_FALSE(cycles.callsite_needs_cycle_table(unit.site(fetch_tags[0])));
  EXPECT_TRUE(escapes.return_reusable(unit.site(fetch_tags[0])));
  EXPECT_FALSE(cycles.callsite_needs_cycle_table(unit.site(barrier_tags[0])));
}

TEST(Lowering, PreciseCyclesFixFigure14FromSource) {
  Analyzed a(src("figure14_linked_list.mp"));
  analysis::CycleAnalysis refined(*a.heap, /*construction_order=*/true);
  EXPECT_FALSE(refined.callsite_needs_cycle_table(a.only_site()));
}

TEST(Lowering, WhileLoopsBuildPhis) {
  const Unit unit = compile_source(src("figure14_linked_list.mp"));
  const ir::Function& bench =
      *unit.module->find_function("Main.benchmark");
  bool found_phi = false;
  for (const auto& block : bench.blocks) {
    for (const auto& in : block.instrs) {
      if (in.op == ir::Op::Phi && in.operands.size() == 2) found_phi = true;
    }
  }
  EXPECT_TRUE(found_phi);  // head = phi(null, new LinkedList(head))
}

TEST(Lowering, IfElseMergesWithPhi) {
  const Unit unit = compile_source(R"(
    class D { }
    class E extends D { }
    class A {
      static void f(int c) {
        D x = new D();
        if (c < 0) {
          x = new E();
        } else {
          x = new D();
        }
        D y = x;
      }
    }
  )");
  analysis::HeapAnalysis heap(*unit.module);
  heap.run();
  const ir::Function& f = *unit.module->find_function("A.f");
  // y sees both branch allocations (plus not the pre-branch one).
  ir::ValueId y = ir::kNoValue;
  for (const auto& block : f.blocks) {
    for (const auto& in : block.instrs) {
      if (in.op == ir::Op::Phi) y = in.result;
    }
  }
  ASSERT_NE(y, ir::kNoValue);
  EXPECT_EQ(heap.points_to(f.id, y).size(), 2u);
}

TEST(Lowering, CallsiteTagsCarrySourceLines) {
  const Unit unit = compile_source(src("figure5_call_sites.mp"));
  ASSERT_EQ(unit.callsites.size(), 2u);
  for (const auto& [tag, name] : unit.callsites) {
    EXPECT_NE(name.find("Work.foo@"), std::string::npos) << name;
  }
  EXPECT_EQ(unit.tags_for("Work.foo").size(), 2u);
}

TEST(Lowering, RecordStyleConstructorAssignsFields) {
  const Unit unit = compile_source(R"(
    class Node {
      Node next;
    }
    class A {
      static void f() {
        Node a = new Node();
        Node b = new Node(a);
      }
    }
  )");
  analysis::HeapAnalysis heap(*unit.module);
  heap.run();
  // b's node points to a's node through 'next'.
  const ir::Function& f = *unit.module->find_function("A.f");
  bool linked = false;
  for (std::size_t v = 0; v < f.value_count; ++v) {
    for (analysis::LogicalId id : heap.points_to(f.id, static_cast<ir::ValueId>(v))) {
      if (!heap.node(id).fields.empty()) linked = true;
    }
  }
  EXPECT_TRUE(linked);
}

}  // namespace
}  // namespace rmiopt::frontend
