#include "apps/webserver.hpp"

#include <cstdio>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "apps/harness.hpp"
#include "apps/paper_figures.hpp"
#include "driver/compile.hpp"
#include "rmi/name_service.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace rmiopt::apps {

namespace {

std::string url_for(std::size_t page) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/page%06zu.html", page);
  return buf;
}

}  // namespace

RunResult run_webserver(codegen::OptLevel level, const WebserverConfig& cfg) {
  RMIOPT_CHECK(cfg.machines >= 2, "webserver needs a master and a slave");
  figures::FigureProgram local_model;
  if (cfg.model == nullptr) local_model = figures::make_webserver_model();
  const figures::FigureProgram& model = cfg.model ? *cfg.model : local_model;
  driver::CompiledProgram prog =
      compile_model(model, level, cfg.model ? cfg.pass_manager : nullptr);

  net::Cluster cluster(cfg.machines, *model.types, cfg.cost, cfg.transport,
                       {}, cfg.faults, cfg.detector);
  if (cfg.recorder != nullptr) cluster.set_recorder(cfg.recorder);
  rmi::RmiSystem sys(cluster, *model.types,
                     rmi::ExecutorConfig{cfg.dispatch_workers,
                                         cfg.call_timeout_ms});
  // JavaParty runtime bootstrap (class-mode stubs): the residual cycle
  // lookups of Table 8.
  rmi::NameService names(sys, *model.types);
  const std::size_t slaves = cfg.machines - 1;

  // ---- slave state: per-slave page table (url -> page object) -------------
  struct Slave {
    std::unordered_map<std::string, om::ObjRef> table;
  };
  std::vector<Slave> slave_state(cfg.machines);  // index by machine id
  std::atomic<std::uint64_t> misses{0};

  // Byte i of page p is 'a' + (p + i) % 26: the window of one repeating
  // alphabet string that starts at p % 26.
  std::string alphabet(cfg.page_size + 26, '\0');
  for (std::size_t i = 0; i < alphabet.size(); ++i) {
    alphabet[i] = static_cast<char>('a' + i % 26);
  }
  for (std::size_t s = 1; s < cfg.machines; ++s) {
    om::Heap& heap = cluster.machine(s).heap();
    for (std::size_t p = 0; p < cfg.pages; ++p) {
      const std::string_view body(alphabet.data() + p % 26, cfg.page_size);
      slave_state[s].table.emplace(url_for(p), heap.alloc_string(body));
    }
  }

  const auto get_page = sys.define_method(
      "Server.get_page", [&](rmi::CallContext& ctx, auto,
                             std::span<const om::ObjRef> args) {
        Slave& me = slave_state[ctx.machine().id()];
        const std::string url(args[0]->as_string_view());
        auto it = me.table.find(url);
        if (it == me.table.end()) {
          ++misses;
          return rmi::HandlerResult{};  // 404: null page
        }
        // The page is owned by the table; the runtime serializes it but
        // must not free it.
        return rmi::HandlerResult{.value = it->second};
      });
  const auto site = sys.add_callsite(
      driver::to_runtime_site(prog, model.tag("get_page"), get_page));
  const bool ret_reused = sys.callsite(site).plan->reuse_ret;

  const om::ClassId server_cls = marker_class(*model.types, "Server");
  std::vector<rmi::RemoteRef> servers;
  for (std::size_t s = 1; s < cfg.machines; ++s) {
    servers.push_back(
        sys.export_object(static_cast<std::uint16_t>(s),
                          cluster.machine(s).heap().alloc(server_cls)));
  }
  sys.start();
  for (std::size_t s = 0; s < slaves; ++s) {
    try {
      names.bind(static_cast<std::uint16_t>(s + 1),
                 "Server#" + std::to_string(s), servers[s]);
    } catch (const rmi::RmiTimeout&) {
      // The slave is dead (crashed before it could register); the
      // replicated bind below re-points its name at a live replica.
    }
  }
  if (cfg.faults.enabled()) {
    // Failover is the name service's job now: publish each name with its
    // full replica group (every slave holds every page, so live replicas
    // are interchangeable) and let the registry advance the binding when
    // a machine dies — via the failure detector's death callback, or via
    // a caller's report_failure after a timeout.  Gated on an active
    // fault plan so a healthy run's traffic stays byte-identical.
    for (std::size_t s = 0; s < slaves; ++s) {
      names.bind_replicated(0, "Server#" + std::to_string(s), servers,
                            /*preferred=*/s);
    }
  }

  // ---- master request loop ---------------------------------------------------
  om::Heap& h0 = cluster.machine(0).heap();
  std::mutex fo_mu;  // guards resolved
  std::vector<rmi::RemoteRef> resolved(slaves);
  for (std::size_t s = 0; s < slaves; ++s) {
    resolved[s] = names.lookup(0, "Server#" + std::to_string(s));
  }

  // The master forwards requests from `concurrent_clients` pipelines; a
  // single pipeline is latency-bound (one RTT per page), several overlap
  // their round trips across the slaves.
  std::atomic<std::uint64_t> bytes_received{0};
  const std::size_t clients =
      std::max<std::size_t>(1, cfg.concurrent_clients);
  auto client = [&](std::size_t id) {
    SplitMix64 rng(cfg.seed + id);
    const std::size_t quota =
        cfg.requests / clients + (id < cfg.requests % clients ? 1 : 0);
    for (std::size_t r = 0; r < quota; ++r) {
      const std::size_t page = rng.next_below(cfg.pages);
      const std::string url = url_for(page);
      // Route by the URL's Java hash code, as the paper does.
      const auto h = static_cast<std::uint32_t>(java_string_hash(url));
      const std::size_t slot = h % slaves;
      // Retry loop: a failed call (ARQ-budget RmiTimeout, or the typed
      // fast-fail MachineDown subclass when the detector is on) is
      // reported to the name service, which re-points the name at a live
      // replica; the request is then re-issued there.  At-most-once
      // semantics make the retry safe: get_page is read-only and the dead
      // callee never replies.
      for (;;) {
        rmi::RemoteRef server;
        {
          std::scoped_lock lock(fo_mu);
          server = resolved[slot];
        }
        om::ObjRef url_obj = h0.alloc_string(url);
        try {
          om::ObjRef page_obj =
              sys.invoke(0, server, site, std::array{url_obj});
          if (page_obj != nullptr) {
            bytes_received += page_obj->length();
            if (!ret_reused) h0.free_graph(page_obj);
          }
          h0.free(url_obj);
          break;
        } catch (const rmi::RmiTimeout&) {
          h0.free(url_obj);
          const std::string name = "Server#" + std::to_string(slot);
          try {
            names.report_failure(0, name, server.machine);
          } catch (const rmi::RemoteException& e) {
            throw Error(std::string("webserver: ") + e.what());
          }
          const rmi::RemoteRef fresh = names.lookup(0, name);
          std::scoped_lock lock(fo_mu);
          resolved[slot] = fresh;
        }
      }
    }
  };
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (auto& t : threads) t.join();
  }
  sys.stop();

  RunResult r = collect_run(cluster, sys);
  // om::Heap frees nothing on destruction, so the pages go back here,
  // after the counters were read: stop() drained the executors, and a
  // sealed gather buffer holds a copy of a page, not a borrow.
  for (std::size_t s = 1; s < cfg.machines; ++s) {
    for (const auto& [url, page] : slave_state[s].table) {
      cluster.machine(s).heap().free(page);
    }
  }
  r.compile = prog.stats;
  r.failovers = names.failovers();
  r.check = static_cast<double>(bytes_received.load());
  RMIOPT_CHECK(misses.load() == 0, "webserver served a 404");
  return r;
}

}  // namespace rmiopt::apps
