#include "apps/lu.hpp"

#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "apps/harness.hpp"
#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"
#include "rmi/name_service.hpp"
#include "support/rng.hpp"

namespace rmiopt::apps {

namespace {

// Per-machine application state: the local matrix copy plus the pivot-row
// arrival ledger the workers synchronize on.
struct LuMachine {
  std::vector<double> a;  // row-major n*n
  std::size_t n = 0;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<bool> have_row;

  double& at(std::size_t i, std::size_t j) { return a[i * n + j]; }

  void mark_row(std::size_t k) {
    {
      std::scoped_lock lock(mu);
      have_row[k] = true;
    }
    cv.notify_all();
  }
  void wait_row(std::size_t k) {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return have_row[k]; });
  }
};

struct Barrier {
  std::mutex mu;
  std::vector<rmi::ReplyToken> waiting;
  std::size_t parties = 0;
};

}  // namespace

RunResult run_lu(codegen::OptLevel level, const LuConfig& cfg) {
  const std::size_t n = cfg.n;
  const std::size_t P = cfg.machines;
  RMIOPT_CHECK(P >= 1 && n >= 2, "LU needs >=1 machine and n>=2");

  figures::FigureProgram local_model;
  if (cfg.model == nullptr) local_model = figures::make_lu_model();
  const figures::FigureProgram& model = cfg.model ? *cfg.model : local_model;
  driver::CompiledProgram prog =
      compile_model(model, level, cfg.model ? cfg.pass_manager : nullptr);

  net::Cluster cluster(P, *model.types, cfg.cost, cfg.transport, {},
                       cfg.faults, cfg.detector);
  if (cfg.recorder != nullptr) cluster.set_recorder(cfg.recorder);
  rmi::RmiSystem sys(cluster, *model.types,
                     rmi::ExecutorConfig{cfg.dispatch_workers});
  // The JavaParty runtime's own bootstrap RMIs use generic class-mode
  // stubs — the source of the residual cycle lookups in Table 4.
  rmi::NameService names(sys, *model.types);
  const om::ClassId row_cls = model.cls("[double");

  // ---- application state ---------------------------------------------------
  std::vector<LuMachine> state(P);
  SplitMix64 rng(cfg.seed);
  std::vector<double> original(n * n);
  for (double& v : original) v = rng.next_double() * 2.0 - 1.0;
  // Diagonal dominance keeps the factorization stable without pivoting.
  for (std::size_t i = 0; i < n; ++i) {
    original[i * n + i] += static_cast<double>(n);
  }
  for (auto& st : state) {
    st.a = original;
    st.n = n;
    st.have_row.assign(n, false);
  }

  Barrier barrier;
  barrier.parties = P;

  // ---- remote methods ------------------------------------------------------
  const auto flush_method = sys.define_method(
      "LU.flush", [&](rmi::CallContext& ctx,
                      std::span<const std::int64_t> scalars,
                      std::span<const om::ObjRef> args) {
        const auto k = static_cast<std::size_t>(scalars[0]);
        LuMachine& st = state[ctx.machine().id()];
        // memcpy through the const payload: a zero-copy-received row may
        // be a pinned borrow at an arbitrary wire offset, where a typed
        // span is rejected and a mutable access would detach it.
        const om::Object& row = *args[0];
        std::memcpy(st.a.data() + k * n, row.payload(),
                    row.length() * sizeof(double));
        st.mark_row(k);
        return rmi::HandlerResult{};
      });

  const auto fetch_method = sys.define_method(
      "LU.fetch_row", [&](rmi::CallContext& ctx,
                          std::span<const std::int64_t> scalars, auto) {
        const auto k = static_cast<std::size_t>(scalars[0]);
        LuMachine& st = state[ctx.machine().id()];
        om::ObjRef row = ctx.heap().alloc_array(
            row_cls, static_cast<std::uint32_t>(n));
        auto e = row->elems<double>();
        std::copy(st.a.begin() + k * n, st.a.begin() + (k + 1) * n,
                  e.begin());
        return rmi::HandlerResult{.value = row, .give_ownership = true};
      });

  const auto barrier_method = sys.define_method(
      "LU.barrier", [&](rmi::CallContext& ctx, auto, auto) {
        std::scoped_lock lock(barrier.mu);
        barrier.waiting.push_back(ctx.reply_token());
        if (barrier.waiting.size() < barrier.parties) {
          return rmi::HandlerResult{.deferred = true};
        }
        // Last arrival: release everyone (including this call, whose
        // token is in the list too — reply to the others, return normally
        // for ourselves).
        for (const auto& t : barrier.waiting) {
          if (t.seq != ctx.reply_token().seq) ctx.system().send_reply(t, nullptr);
        }
        barrier.waiting.clear();
        return rmi::HandlerResult{};
      });

  const auto flush_site = sys.add_callsite(
      driver::to_runtime_site(prog, model.tag("flush"), flush_method));
  const auto fetch_site = sys.add_callsite(
      driver::to_runtime_site(prog, model.tag("fetch_row"), fetch_method));
  const auto barrier_site = sys.add_callsite(
      driver::to_runtime_site(prog, model.tag("barrier"), barrier_method));
  const bool fetch_reuses_ret = sys.callsite(fetch_site).plan->reuse_ret;

  // One exported "LU" object per machine (its methods above act on the
  // machine's LuMachine state); the barrier object lives on machine 0.
  std::vector<rmi::RemoteRef> lu_refs;
  const om::ClassId lu_cls = marker_class(*model.types, "LU");
  for (std::size_t m = 0; m < P; ++m) {
    lu_refs.push_back(sys.export_object(
        static_cast<std::uint16_t>(m),
        cluster.machine(m).heap().alloc(lu_cls)));
  }
  sys.start();
  for (std::size_t m = 0; m < P; ++m) {
    names.bind(static_cast<std::uint16_t>(m), "LU#" + std::to_string(m),
               lu_refs[m]);
  }

  // ---- workers ---------------------------------------------------------------
  auto worker = [&](std::uint16_t me) {
    LuMachine& st = state[me];
    om::Heap& heap = cluster.machine(me).heap();
    // Resolve the peers through the runtime's name service (bootstrap).
    std::vector<rmi::RemoteRef> peers(P);
    for (std::size_t m = 0; m < P; ++m) {
      peers[m] = names.lookup(me, "LU#" + std::to_string(m));
    }
    om::ObjRef send_buf =
        heap.alloc_array(row_cls, static_cast<std::uint32_t>(n));

    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t owner = k % P;
      if (owner == me) {
        st.mark_row(k);
        auto buf = send_buf->elems<double>();
        std::copy(st.a.begin() + k * n, st.a.begin() + (k + 1) * n,
                  buf.begin());
        for (std::size_t peer = 0; peer < P; ++peer) {
          if (peer == me) continue;
          sys.invoke(me, peers[peer], flush_site, std::array{send_buf},
                     std::array<std::int64_t, 1>{
                         static_cast<std::int64_t>(k)});
        }
      } else {
        st.wait_row(k);
      }
      // Update owned rows below k.
      const double pivot = st.at(k, k);
      std::uint64_t updates = 0;
      for (std::size_t i = k + 1; i < n; ++i) {
        if (i % P != me) continue;
        const double l = st.at(i, k) / pivot;
        st.at(i, k) = l;
        for (std::size_t j = k + 1; j < n; ++j) {
          st.at(i, j) -= l * st.at(k, j);
        }
        updates += n - k;
      }
      cluster.machine(me).clock().advance(SimTime::nanos(
          static_cast<std::int64_t>(cfg.flop_pair_ns *
                                    static_cast<double>(updates))));
      sys.invoke(me, peers[0], barrier_site, {});
    }

    // Collection phase: machine 0 fetches every remotely-owned row — the
    // return-value-reuse path (§3.3).
    if (me == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t owner = i % P;
        if (owner == 0) continue;
        om::ObjRef row = sys.invoke(
            0, peers[owner], fetch_site, {},
            std::array<std::int64_t, 1>{static_cast<std::int64_t>(i)});
        const om::Object& r = *row;  // possibly a pinned (unaligned) borrow
        std::memcpy(st.a.data() + i * n, r.payload(),
                    r.length() * sizeof(double));
        if (!fetch_reuses_ret) heap.free_graph(row);
      }
    }
    heap.free(send_buf);
  };

  std::vector<std::thread> threads;
  for (std::size_t m = 0; m < P; ++m) {
    threads.emplace_back(worker, static_cast<std::uint16_t>(m));
  }
  for (auto& t : threads) t.join();
  sys.stop();

  // ---- verification: max |L*U - A| over machine 0's assembled result ------
  LuMachine& r0 = state[0];
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      const std::size_t kmax = std::min(i, j);
      for (std::size_t k = 0; k <= kmax; ++k) {
        const double l = (k == i) ? 1.0 : r0.at(i, k);  // unit diagonal L
        sum += l * r0.at(k, j);
      }
      residual = std::max(residual, std::abs(sum - original[i * n + j]));
    }
  }

  RunResult r = collect_run(cluster, sys);
  r.compile = prog.stats;
  r.check = residual;
  return r;
}

}  // namespace rmiopt::apps
