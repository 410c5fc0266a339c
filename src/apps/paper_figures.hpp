// The paper's running examples (Figures 2–14) and the communication
// structure of its three applications, as MiniParty programs.
//
// Each program exists once, as a file in examples/miniparty/; the build
// embeds the files into the library and every factory below lowers one of
// them with frontend::compile_source.  Tests validate the analyses against
// the paper's stated outcomes on these exact programs; the compiler_tour
// example prints the generated code for them; the apps and the table
// binaries run them, so the golden-table gate catches any edit to a file.
#pragma once

#include <span>
#include <string_view>

#include "frontend/compile.hpp"

namespace rmiopt::apps::figures {

// A lowered program: its classes, functions and tagged remote call sites.
using FigureProgram = frontend::Unit;

struct Source {
  std::string_view file;  // e.g. "figure14_linked_list.mp"
  std::string_view text;
};

// Every examples/miniparty/*.mp file, sorted by file name.
std::span<const Source> sources();

// The text of one of them; throws std::out_of_range if there is none.
std::string_view source(std::string_view file);

// Figure 2: class Foo { Bar bar; double[][][] a; } — heap-graph shape of
// nested allocations (5 allocation sites).
FigureProgram make_figure2();

// Figures 3/4: remote Data foo(Data a){return a;} called in a loop — the
// data-flow must terminate via the (logical, physical) tuple rule.
FigureProgram make_figure3();

// Figure 5: remote void foo(Base b) called once with Derived1, once with
// Derived2 (which references a Derived1) — call-site specialization.
FigureProgram make_figure5();

// Figure 8: bar(b, b) — the same object passed twice needs cycle handling.
FigureProgram make_figure8();

// Figure 9: b.self = b — a self-referencing argument.
FigureProgram make_figure9();

// Figure 10: remote foo(double[] a) never stores a — reusable.
FigureProgram make_figure10();

// Figure 11: remote foo(Bar a) { d = a.d; } with static d — escapes.
FigureProgram make_figure11();

// Figure 12: remote void send(double[][] arr) with a 16x16 argument —
// the 2-D array transmission benchmark (Table 2), and the program whose
// generated unmarshaler the paper shows in Figure 13.
FigureProgram make_figure12();

// Figure 14: remote void send(LinkedList l) with a 100-element list —
// the linked-list transmission benchmark (Table 1).  The single-site list
// allocation makes the cycle analysis conservatively keep runtime cycle
// detection (paper §7 admits this imprecision).
FigureProgram make_figure14();

// The paper's webserver RMI: remote String get_page(String url) where
// pages live in a static table (returned graph reusable at the caller;
// argument string reusable at the callee) — Tables 7/8.
FigureProgram make_webserver_model();

// The paper's superoptimizer RMI: remote void test(Program p) where the
// handler pushes p into a static queue — p escapes, no reuse; the program
// graph (program -> instrs[] -> operands) is acyclic — Tables 5/6.
FigureProgram make_superopt_model();

// The paper's LU RMIs: remote void flush(long row, double[] data) writing
// into a static matrix (primitive stores only), remote double[]
// fetch_row(long row) and remote void barrier() — arguments acyclic and
// reusable — Tables 3/4.
FigureProgram make_lu_model();

}  // namespace rmiopt::apps::figures
