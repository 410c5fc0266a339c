// Semantic analysis and SSA lowering: MiniParty AST -> ir::Module.
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "frontend/compile.hpp"

namespace rmiopt::frontend {

namespace {

om::TypeKind prim_kind(const std::string& name, const SourceLoc& loc) {
  if (name == "boolean") return om::TypeKind::Bool;
  if (name == "byte") return om::TypeKind::Byte;
  if (name == "short") return om::TypeKind::Short;
  if (name == "int") return om::TypeKind::Int;
  if (name == "long") return om::TypeKind::Long;
  if (name == "float") return om::TypeKind::Float;
  if (name == "double") return om::TypeKind::Double;
  throw ParseError(loc, "unknown primitive type '" + name + "'");
}

bool is_prim_name(const std::string& name) {
  return name == "boolean" || name == "byte" || name == "short" ||
         name == "int" || name == "long" || name == "float" ||
         name == "double";
}

struct MethodInfo {
  const ClassDecl* owner = nullptr;
  const MethodDecl* decl = nullptr;
  ir::FuncId func = 0;
  bool remote = false;
};

class Lowerer {
 public:
  Lowerer(const ProgramAst& ast, Unit& unit) : ast_(ast), unit_(unit) {}

  void run() {
    declare_classes();
    define_class_fields();
    declare_globals();
    declare_methods();
    lower_bodies();
    ir::verify(*unit_.module);
  }

 private:
  // ---- type resolution ------------------------------------------------------

  const ClassDecl* find_class(const std::string& name) const {
    for (const auto& c : ast_.classes) {
      if (c.name == name) return &c;
    }
    return nullptr;
  }

  ir::Type resolve(const TypeName& t) {
    if (t.base == "void") {
      if (t.dims != 0) throw ParseError(t.loc, "void cannot be an array");
      return ir::Type::void_type();
    }
    om::ClassId cls = om::kNoClass;
    om::TypeKind kind = om::TypeKind::Ref;
    if (is_prim_name(t.base)) {
      kind = prim_kind(t.base, t.loc);
    } else {
      auto it = unit_.classes.find(t.base);
      if (it == unit_.classes.end()) {
        throw ParseError(t.loc, "unknown type '" + t.base + "'");
      }
      cls = it->second;
    }
    if (t.dims == 0) {
      return kind == om::TypeKind::Ref ? ir::Type::ref(cls)
                                       : ir::Type::prim(kind);
    }
    om::TypeRegistry& types = *unit_.types;
    om::ClassId arr = kind == om::TypeKind::Ref
                          ? types.register_ref_array(cls)
                          : types.register_prim_array(kind);
    for (int d = 1; d < t.dims; ++d) arr = types.register_ref_array(arr);
    return ir::Type::ref(arr);
  }

  static om::FieldSpec to_field_spec(const std::string& name,
                                     const ir::Type& t) {
    om::FieldSpec spec;
    spec.name = name;
    spec.kind = t.is_ref() ? om::TypeKind::Ref : t.kind;
    spec.ref_class = t.is_ref() ? t.class_id : om::kNoClass;
    return spec;
  }

  // ---- declaration passes ---------------------------------------------------

  void declare_classes() {
    unit_.classes.emplace("String", unit_.types->string_class());
    for (const auto& c : ast_.classes) {
      if (unit_.classes.contains(c.name)) {
        throw ParseError(c.loc, "duplicate class '" + c.name + "'" +
                                    (c.name == "String" ? " (built in)" : ""));
      }
      unit_.classes.emplace(c.name, unit_.types->declare_class(c.name));
    }
  }

  void define_class_fields() {
    for (const auto& c : ast_.classes) {
      om::ClassId super = om::kNoClass;
      if (!c.extends.empty()) {
        auto it = unit_.classes.find(c.extends);
        if (it == unit_.classes.end()) {
          throw ParseError(c.loc, "unknown superclass '" + c.extends + "'");
        }
        if (it->second == unit_.types->string_class()) {
          throw ParseError(c.loc, "cannot extend the built-in String");
        }
        super = it->second;
      }
      std::vector<om::FieldSpec> specs;
      for (const auto& f : c.fields) {
        // Remote-class instance fields are per-VM state (see compile.hpp);
        // they become globals, not object fields.
        if (f.is_static || c.is_remote) continue;
        specs.push_back(to_field_spec(f.name, resolve(f.type)));
      }
      unit_.types->define_fields(unit_.cls(c.name), specs, super);
    }
  }

  void declare_globals() {
    for (const auto& c : ast_.classes) {
      for (const auto& f : c.fields) {
        if (!f.is_static && !c.is_remote) continue;
        const std::string qualified = c.name + "." + f.name;
        globals_.emplace(qualified,
                         unit_.module->add_global(qualified, resolve(f.type)));
      }
    }
  }

  void declare_methods() {
    for (const auto& c : ast_.classes) {
      for (const auto& m : c.methods) {
        const std::string qualified = c.name + "." + m.name;
        if (methods_.contains(qualified)) {
          throw ParseError(m.loc, "duplicate method '" + qualified +
                                      "' (no overloading)");
        }
        std::vector<ir::Type> params;
        for (const auto& p : m.params) params.push_back(resolve(p.type));
        const bool remote = c.is_remote && !m.is_static;
        ir::Function& f = unit_.module->add_function(
            qualified, std::move(params), resolve(m.ret), remote);
        MethodInfo info;
        info.owner = &c;
        info.decl = &m;
        info.func = f.id;
        info.remote = remote;
        methods_.emplace(qualified, info);
        unit_.functions.emplace(qualified, f.id);
      }
    }
  }

  // Looks `method` up on `cls` or its ancestors.
  const MethodInfo* find_method(const std::string& cls_name,
                                const std::string& method) const {
    const ClassDecl* c = find_class(cls_name);
    while (c != nullptr) {
      auto it = methods_.find(c->name + "." + method);
      if (it != methods_.end()) return &it->second;
      c = c->extends.empty() ? nullptr : find_class(c->extends);
    }
    return nullptr;
  }

  // ---- body lowering ---------------------------------------------------------

  struct Value {
    ir::ValueId id = ir::kNoValue;
    ir::Type type;
  };

  struct BodyCtx {
    const ClassDecl* cls = nullptr;
    const MethodDecl* method = nullptr;
    ir::FunctionBuilder* b = nullptr;
    std::unordered_map<std::string, Value> env;
  };

  void lower_bodies() {
    for (const auto& c : ast_.classes) {
      for (const auto& m : c.methods) {
        const MethodInfo& info = methods_.at(c.name + "." + m.name);
        ir::Function& f = unit_.module->function(info.func);
        ir::FunctionBuilder b(*unit_.module, f);
        BodyCtx ctx;
        ctx.cls = &c;
        ctx.method = &m;
        ctx.b = &b;
        for (std::size_t i = 0; i < m.params.size(); ++i) {
          ctx.env[m.params[i].name] =
              Value{b.param(i), f.params[i]};
        }
        lower_stmts(ctx, m.body);
        // Implicit trailing return for void methods.
        if (f.ret.is_void) b.ret();
      }
    }
  }

  void lower_stmts(BodyCtx& ctx, const std::vector<StmtPtr>& stmts) {
    for (const auto& s : stmts) lower_stmt(ctx, *s);
  }

  void check_assignable(const ir::Type& dst, const Value& src,
                        const SourceLoc& loc) {
    if (dst.is_ref()) {
      if (!src.type.is_ref()) {
        throw ParseError(loc, "cannot assign a primitive to a reference");
      }
      if (dst.class_id == om::kNoClass || src.type.class_id == om::kNoClass) {
        return;  // Object / null: always assignable
      }
      if (!unit_.types->is_subclass_of(src.type.class_id, dst.class_id)) {
        throw ParseError(loc, "cannot assign " +
                                  unit_.types->get(src.type.class_id).name +
                                  " to " +
                                  unit_.types->get(dst.class_id).name);
      }
      return;
    }
    if (src.type.is_ref() || src.type.is_void) {
      throw ParseError(loc, "cannot assign a reference to a primitive");
    }
  }

  void lower_stmt(BodyCtx& ctx, const Stmt& s) {
    switch (s.kind) {
      case StmtKind::LocalDecl: {
        const ir::Type t = resolve(s.decl_type);
        if (ctx.env.contains(s.name)) {
          throw ParseError(s.loc, "redefinition of '" + s.name + "'");
        }
        Value v = lower_expr(ctx, *s.value);
        v = coerce_null(ctx, v, t);
        check_assignable(t, v, s.loc);
        ctx.env[s.name] = Value{v.id, t};
        return;
      }
      case StmtKind::Assign:
        lower_assign(ctx, *s.lvalue, *s.value, s.loc);
        return;
      case StmtKind::ExprStmt:
        lower_expr(ctx, *s.value);
        return;
      case StmtKind::Return: {
        const ir::Function& f = unit_.module->function(
            methods_.at(ctx.cls->name + "." + ctx.method->name).func);
        if (s.value == nullptr) {
          if (!f.ret.is_void) {
            throw ParseError(s.loc, "non-void method must return a value");
          }
          ctx.b->ret();
          return;
        }
        if (f.ret.is_void) {
          throw ParseError(s.loc, "void method cannot return a value");
        }
        Value v = lower_expr(ctx, *s.value);
        v = coerce_null(ctx, v, f.ret);
        check_assignable(f.ret, v, s.loc);
        ctx.b->ret(v.id);
        return;
      }
      case StmtKind::While:
        lower_while(ctx, s);
        return;
      case StmtKind::If:
        lower_if(ctx, s);
        return;
    }
  }

  // Variables (re)assigned anywhere below `stmts` (for phi placement).
  static void collect_assigned(const std::vector<StmtPtr>& stmts,
                               std::unordered_set<std::string>& out) {
    for (const auto& s : stmts) {
      if (s->kind == StmtKind::Assign &&
          s->lvalue->kind == ExprKind::Var) {
        out.insert(s->lvalue->name);
      }
      collect_assigned(s->body, out);
      collect_assigned(s->else_body, out);
    }
  }

  void lower_while(BodyCtx& ctx, const Stmt& s) {
    std::unordered_set<std::string> assigned;
    collect_assigned(s.body, assigned);

    ctx.b->set_block("loop@" + std::to_string(s.loc.line));
    std::unordered_map<std::string, ir::ValueId> phis;
    for (const auto& name : assigned) {
      auto it = ctx.env.find(name);
      if (it == ctx.env.end()) continue;  // loop-local, scoped below
      const ir::ValueId ph = ctx.b->phi({it->second.id});
      phis.emplace(name, ph);
      it->second.id = ph;
    }
    lower_expr(ctx, *s.cond);  // data-flow effects only

    auto loop_env = ctx.env;
    BodyCtx body_ctx = ctx;
    lower_stmts(body_ctx, s.body);
    for (const auto& [name, ph] : phis) {
      ctx.b->append_phi_input(ph, body_ctx.env.at(name).id);
      // After the loop the variable's value is the phi (0, 1, ... trips).
      ctx.env[name].id = ph;
    }
    ctx.b->set_block("endloop@" + std::to_string(s.loc.line));
  }

  void lower_if(BodyCtx& ctx, const Stmt& s) {
    lower_expr(ctx, *s.cond);
    BodyCtx then_ctx = ctx;
    lower_stmts(then_ctx, s.body);
    BodyCtx else_ctx = ctx;
    lower_stmts(else_ctx, s.else_body);
    // Merge: any pre-existing variable whose value diverged gets a phi.
    for (auto& [name, v] : ctx.env) {
      const ir::ValueId tv = then_ctx.env.at(name).id;
      const ir::ValueId ev = else_ctx.env.at(name).id;
      if (tv != ev) {
        v.id = ctx.b->phi({tv, ev});
      } else {
        v.id = tv;
      }
    }
  }

  void lower_assign(BodyCtx& ctx, const Expr& lvalue, const Expr& rhs,
                    const SourceLoc& loc) {
    if (lvalue.kind == ExprKind::Var) {
      // Static field of the current class shadows... locals first.
      auto it = ctx.env.find(lvalue.name);
      if (it != ctx.env.end()) {
        Value v = lower_expr(ctx, rhs);
        v = coerce_null(ctx, v, it->second.type);
        check_assignable(it->second.type, v, loc);
        it->second.id = v.id;
        return;
      }
      // Unqualified static/per-VM field of the enclosing class.
      const auto g = find_global(ctx.cls->name, lvalue.name);
      if (g.has_value()) {
        Value v = lower_expr(ctx, rhs);
        const ir::Type gt = unit_.module->global(*g).type;
        v = coerce_null(ctx, v, gt);
        check_assignable(gt, v, loc);
        ctx.b->store_static(*g, v.id);
        return;
      }
      throw ParseError(loc, "unknown variable '" + lvalue.name + "'");
    }
    if (lvalue.kind == ExprKind::FieldGet) {
      // Class-qualified static?  `this.f`?  Otherwise an object field.
      if (auto g = resolve_static_target(ctx, lvalue)) {
        Value v = lower_expr(ctx, rhs);
        const ir::Type gt = unit_.module->global(*g).type;
        v = coerce_null(ctx, v, gt);
        check_assignable(gt, v, loc);
        ctx.b->store_static(*g, v.id);
        return;
      }
      Value target = lower_expr(ctx, *lvalue.target);
      require_class_ref(target, lvalue.loc);
      Value v = lower_expr(ctx, rhs);
      const om::ClassDescriptor& cls = unit_.types->get(target.type.class_id);
      const ir::Type ft = field_type(cls, lvalue.name, lvalue.loc);
      v = coerce_null(ctx, v, ft);
      check_assignable(ft, v, loc);
      ctx.b->store_field(target.id, lvalue.name, v.id);
      return;
    }
    if (lvalue.kind == ExprKind::Index) {
      Value target = lower_expr(ctx, *lvalue.target);
      require_class_ref(target, lvalue.loc);
      lower_expr(ctx, *lvalue.args[0]);  // index: data-flow only
      Value v = lower_expr(ctx, rhs);
      const om::ClassDescriptor& cls = unit_.types->get(target.type.class_id);
      if (!cls.is_array) {
        throw ParseError(lvalue.loc, "indexed assignment to a non-array");
      }
      const ir::Type et = cls.elem_kind == om::TypeKind::Ref
                              ? ir::Type::ref(cls.elem_class)
                              : ir::Type::prim(cls.elem_kind);
      v = coerce_null(ctx, v, et);
      check_assignable(et, v, loc);
      ctx.b->store_index(target.id, v.id);
      return;
    }
    throw ParseError(loc, "expression is not assignable");
  }

  // ---- expression lowering ----------------------------------------------------

  void require_class_ref(const Value& v, const SourceLoc& loc) {
    if (!v.type.is_ref() || v.type.class_id == om::kNoClass) {
      throw ParseError(loc, "expression is not an object reference of a "
                            "known class");
    }
  }

  ir::Type field_type(const om::ClassDescriptor& cls, const std::string& name,
                      const SourceLoc& loc) {
    for (const auto& f : cls.fields) {
      if (f.name == name) {
        return f.kind == om::TypeKind::Ref ? ir::Type::ref(f.ref_class)
                                           : ir::Type::prim(f.kind);
      }
    }
    throw ParseError(loc, "class " + cls.name + " has no field '" + name +
                              "'");
  }

  std::optional<ir::GlobalId> find_global(const std::string& cls_name,
                                          const std::string& field) const {
    // Walk the inheritance chain for statics too.
    const ClassDecl* c = find_class(cls_name);
    while (c != nullptr) {
      auto it = globals_.find(c->name + "." + field);
      if (it != globals_.end()) return it->second;
      c = c->extends.empty() ? nullptr : find_class(c->extends);
    }
    return std::nullopt;
  }

  // Resolves `lvalue`/expr of shape target.name to a global when the
  // target is a class name or `this` inside a remote class.
  std::optional<ir::GlobalId> resolve_static_target(BodyCtx& ctx,
                                                    const Expr& e) {
    if (e.kind != ExprKind::FieldGet || e.target == nullptr ||
        e.target->kind != ExprKind::Var) {
      return std::nullopt;
    }
    const std::string& base = e.target->name;
    if (ctx.env.contains(base)) return std::nullopt;  // a real object
    if (base == "this") {
      if (!ctx.cls->is_remote) {
        throw ParseError(e.loc,
                         "'this' is only supported in remote classes "
                         "(per-VM state)");
      }
      const auto g = find_global(ctx.cls->name, e.name);
      if (!g.has_value()) {
        throw ParseError(e.loc, "remote class " + ctx.cls->name +
                                    " has no field '" + e.name + "'");
      }
      return g;
    }
    if (find_class(base) != nullptr) {
      const auto g = find_global(base, e.name);
      if (!g.has_value()) {
        throw ParseError(e.loc,
                         "class " + base + " has no static '" + e.name + "'");
      }
      return g;
    }
    return std::nullopt;
  }

  Value coerce_null(BodyCtx& ctx, Value v, const ir::Type& expected) {
    // An untyped null adopts the expected reference type.
    if (v.type.is_ref() && v.type.class_id == om::kNoClass &&
        expected.is_ref() && expected.class_id != om::kNoClass &&
        v.id != ir::kNoValue) {
      (void)ctx;
      v.type = expected;
    }
    return v;
  }

  Value lower_expr(BodyCtx& ctx, const Expr& e) {
    ir::FunctionBuilder& b = *ctx.b;
    switch (e.kind) {
      case ExprKind::IntLit:
        return Value{b.const_int(e.int_value),
                     ir::Type::prim(om::TypeKind::Long)};
      case ExprKind::DoubleLit:
        return Value{b.arith({}, om::TypeKind::Double),
                     ir::Type::prim(om::TypeKind::Double)};
      case ExprKind::Null:
        return Value{b.const_null(), ir::Type::object()};
      case ExprKind::Var: {
        auto it = ctx.env.find(e.name);
        if (it != ctx.env.end()) return it->second;
        if (const auto g = find_global(ctx.cls->name, e.name)) {
          return Value{b.load_static(*g), unit_.module->global(*g).type};
        }
        throw ParseError(e.loc, "unknown variable '" + e.name + "'");
      }
      case ExprKind::New: {
        auto it = unit_.classes.find(e.name);
        if (it == unit_.classes.end()) {
          throw ParseError(e.loc, "unknown class '" + e.name + "'");
        }
        const om::ClassDescriptor& cls = unit_.types->get(it->second);
        // Record-style construction: arguments initialize the first
        // fields in declaration order.
        if (e.args.size() > cls.fields.size()) {
          throw ParseError(e.loc, "too many constructor arguments for " +
                                      cls.name);
        }
        // String, the one array class a program can name, is an array of
        // text bytes in the type registry.
        const ir::ValueId obj = cls.is_string ? b.alloc_array(it->second)
                                              : b.alloc(it->second);
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          Value v = lower_expr(ctx, *e.args[i]);
          const om::FieldDescriptor& f = cls.fields[i];
          const ir::Type ft = f.kind == om::TypeKind::Ref
                                  ? ir::Type::ref(f.ref_class)
                                  : ir::Type::prim(f.kind);
          v = coerce_null(ctx, v, ft);
          check_assignable(ft, v, e.loc);
          if (f.kind == om::TypeKind::Ref) {
            b.store_field(obj, f.name, v.id);
          }
          // primitive ctor args have no data-flow effect: dropped
        }
        return Value{obj, ir::Type::ref(it->second)};
      }
      case ExprKind::NewArray: {
        for (const auto& dim : e.args) lower_expr(ctx, *dim);
        TypeName tn = e.array_base;
        tn.dims = static_cast<int>(e.args.size());
        const ir::Type outer_t = resolve(tn);
        ir::ValueId outer = b.alloc_array(outer_t.class_id);
        // `new double[2][3][4]` allocates one site per dimension level,
        // nested, exactly like the paper's Figure 2.
        ir::ValueId cur = outer;
        om::ClassId cur_cls = outer_t.class_id;
        for (std::size_t d = 1; d < e.args.size(); ++d) {
          const om::ClassDescriptor& cd = unit_.types->get(cur_cls);
          RMIOPT_CHECK(cd.elem_kind == om::TypeKind::Ref,
                       "multi-dim array shape");
          const ir::ValueId inner = b.alloc_array(cd.elem_class);
          b.store_index(cur, inner);
          cur = inner;
          cur_cls = cd.elem_class;
        }
        return Value{outer, outer_t};
      }
      case ExprKind::FieldGet: {
        if (e.target->kind == ExprKind::Var) {
          if (auto g = resolve_static_target(ctx, e)) {
            return Value{b.load_static(*g), unit_.module->global(*g).type};
          }
        }
        Value target = lower_expr(ctx, *e.target);
        require_class_ref(target, e.loc);
        const om::ClassDescriptor& cls =
            unit_.types->get(target.type.class_id);
        if (cls.is_array && e.name == "length") {
          return Value{b.arith({}, om::TypeKind::Int),
                       ir::Type::prim(om::TypeKind::Int)};
        }
        const ir::Type ft = field_type(cls, e.name, e.loc);
        return Value{b.load_field(target.id, e.name), ft};
      }
      case ExprKind::Index: {
        Value target = lower_expr(ctx, *e.target);
        require_class_ref(target, e.loc);
        lower_expr(ctx, *e.args[0]);
        const om::ClassDescriptor& cls =
            unit_.types->get(target.type.class_id);
        if (!cls.is_array) throw ParseError(e.loc, "indexing a non-array");
        const ir::Type et = cls.elem_kind == om::TypeKind::Ref
                                ? ir::Type::ref(cls.elem_class)
                                : ir::Type::prim(cls.elem_kind);
        return Value{b.load_index(target.id), et};
      }
      case ExprKind::Call:
        return lower_call(ctx, e);
      case ExprKind::Binary: {
        Value l = lower_expr(ctx, *e.lhs);
        Value r = lower_expr(ctx, *e.rhs);
        if (l.type.is_ref() || r.type.is_ref()) {
          // Only == / != compare references; the result is a plain value.
          if (e.op != "==" && e.op != "!=") {
            throw ParseError(e.loc, "operator '" + e.op +
                                        "' needs primitive operands");
          }
          return Value{b.arith({}, om::TypeKind::Bool),
                       ir::Type::prim(om::TypeKind::Bool)};
        }
        const bool cmp = e.op == "<" || e.op == ">" || e.op == "<=" ||
                         e.op == ">=" || e.op == "==" || e.op == "!=" ||
                         e.op == "&&" || e.op == "||";
        const om::TypeKind out =
            cmp ? om::TypeKind::Bool
                : (l.type.kind == om::TypeKind::Double ||
                           r.type.kind == om::TypeKind::Double
                       ? om::TypeKind::Double
                       : om::TypeKind::Long);
        return Value{b.arith({l.id, r.id}, out), ir::Type::prim(out)};
      }
    }
    throw ParseError(e.loc, "unsupported expression");
  }

  Value lower_call(BodyCtx& ctx, const Expr& e) {
    ir::FunctionBuilder& b = *ctx.b;

    std::string owner_class;
    bool remote_dispatch = false;
    std::vector<ir::ValueId> args;

    if (e.target == nullptr) {
      owner_class = ctx.cls->name;  // bare call: current class
    } else if (e.target->kind == ExprKind::Var &&
               !ctx.env.contains(e.target->name) &&
               find_class(e.target->name) != nullptr) {
      owner_class = e.target->name;  // static call Class.m(...)
    } else {
      Value recv = lower_expr(ctx, *e.target);
      require_class_ref(recv, e.loc);
      const om::ClassDescriptor& cls = unit_.types->get(recv.type.class_id);
      if (cls.is_array) throw ParseError(e.loc, "calling a method on an array");
      owner_class = cls.name;
      const ClassDecl* decl = find_class(owner_class);
      remote_dispatch = decl != nullptr && decl->is_remote;
      // The receiver itself is not an argument (our IR remote methods have
      // no `this`); its data-flow effects were lowered above.
    }

    const MethodInfo* info = find_method(owner_class, e.name);
    if (info == nullptr) {
      throw ParseError(e.loc, "class " + owner_class + " has no method '" +
                                  e.name + "'");
    }
    const ir::Function& callee = unit_.module->function(info->func);
    if (e.args.size() != callee.params.size()) {
      throw ParseError(e.loc, "wrong number of arguments to " +
                                  callee.name + " (" +
                                  std::to_string(e.args.size()) + " vs " +
                                  std::to_string(callee.params.size()) + ")");
    }
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      Value v = lower_expr(ctx, *e.args[i]);
      v = coerce_null(ctx, v, callee.params[i]);
      check_assignable(callee.params[i], v, e.loc);
      args.push_back(v.id);
    }

    if (remote_dispatch && info->remote) {
      const std::uint32_t tag = next_tag_++;
      unit_.callsites.emplace(
          tag, callee.name + "@" + std::to_string(e.loc.line));
      const ir::ValueId r = b.remote_call(info->func, std::move(args), tag);
      return Value{r, callee.ret};
    }
    const ir::ValueId r = b.call(info->func, std::move(args));
    return Value{r, callee.ret};
  }

  const ProgramAst& ast_;
  Unit& unit_;
  std::unordered_map<std::string, ir::GlobalId> globals_;
  std::unordered_map<std::string, MethodInfo> methods_;
  std::uint32_t next_tag_ = 1;
};

}  // namespace

om::ClassId Unit::cls(const std::string& name) const {
  if (auto it = classes.find(name); it != classes.end()) return it->second;
  if (const om::ClassDescriptor* d = types->find_by_name(name)) return d->id;
  throw std::out_of_range("no class " + name);
}

std::vector<std::uint32_t> Unit::tags_for(const std::string& callee) const {
  std::vector<std::uint32_t> tags;
  for (const auto& [tag, name] : callsites) {
    if (name.substr(0, name.find('@')) == callee) tags.push_back(tag);
  }
  return tags;
}

std::uint32_t Unit::tag(const std::string& method) const {
  std::vector<std::uint32_t> tags;
  for (const auto& [tag, name] : callsites) {
    const std::string callee = name.substr(0, name.find('@'));
    if (callee.substr(callee.find('.') + 1) == method) tags.push_back(tag);
  }
  if (tags.empty()) throw std::out_of_range("no remote call to " + method);
  if (tags.size() > 1) {
    fail(std::to_string(tags.size()) + " remote calls to " + method +
         "; use tags_for");
  }
  return tags[0];
}

ir::Module::RemoteCallRef Unit::site(std::uint32_t tag) const {
  for (const auto& s : module->remote_call_sites()) {
    if (s.instr->callsite_tag == tag) return s;
  }
  fail("no remote call site with tag " + std::to_string(tag));
}

Unit compile_source(std::string_view source) {
  Unit unit;
  unit.types = std::make_unique<om::TypeRegistry>();
  unit.module = std::make_unique<ir::Module>(*unit.types);
  const ProgramAst ast = parse(source);
  Lowerer(ast, unit).run();
  return unit;
}

}  // namespace rmiopt::frontend
