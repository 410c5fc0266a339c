// Per-machine RMI statistics — the counters behind the paper's
// "runtime statistics" tables (Tables 4, 6 and 8) — and the per-call-site
// profile the runtime exports back to the driver for profile-guided
// re-specialization.
#pragma once

#include <map>
#include <mutex>

#include "serial/stats.hpp"

namespace rmiopt::rmi {

// One profiled static call site, keyed by its *compile-time tag* (the
// stable id the application used to wire the site), so the driver can
// match profile rows against CompiledProgram decisions without knowing
// runtime call-site ids.
struct CallSiteProfileRow {
  std::uint32_t tag = 0;
  std::uint64_t invocations = 0;  // local + remote rpcs through the site
  std::uint64_t remote_rpcs = 0;
  std::uint64_t reused_objects = 0;  // reuse-cache hits (§3.3)
  std::uint64_t cycle_lookups = 0;   // runtime cycle-table probes (§3.2)
  std::uint64_t bytes_allocated = 0;  // deserialization allocation volume
};

// What one run taught us about every static call site — the feedback
// input of driver::respecialize.  Exported by RmiSystem::export_profile
// and carried in apps::RunResult.
struct CallSiteProfile {
  std::map<std::uint32_t, CallSiteProfileRow> by_tag;

  bool empty() const { return by_tag.empty(); }
  const CallSiteProfileRow* row(std::uint32_t tag) const {
    auto it = by_tag.find(tag);
    return it == by_tag.end() ? nullptr : &it->second;
  }
};

struct RmiStatsSnapshot {
  std::uint64_t local_rpcs = 0;
  std::uint64_t remote_rpcs = 0;
  serial::SerialStats serial;

  // Reliability counters (all zero on a healthy run).
  std::uint64_t duplicate_calls = 0;    // calls suppressed by at-most-once
  std::uint64_t replayed_replies = 0;   // cached replies re-sent verbatim
  std::uint64_t stray_replies = 0;      // replies with no pending call
  std::uint64_t call_timeouts = 0;      // invocations that raised RmiTimeout
  std::uint64_t machine_down_failures = 0;  // of which: typed MachineDown
  std::uint64_t undeliverable_replies = 0;  // replies lost to a dead link
  std::uint64_t reply_cache_pins = 0;   // evictions skipped: call in flight

  // Overload-robustness counters (all zero under default configuration).
  std::uint64_t deadline_rejects = 0;  // calls refused: deadline already past
  std::uint64_t cancels_sent = 0;      // CancelRequests this machine sent
  std::uint64_t cancels_honored = 0;   // handlers/replies abandoned to cancel
  std::uint64_t sheds = 0;             // calls refused by admission control
  std::uint64_t credit_stalls = 0;     // sends delayed by flow-control credit
  std::uint64_t oneway_calls = 0;      // fire-and-forget invocations sent

  RmiStatsSnapshot& operator+=(const RmiStatsSnapshot& o) {
    local_rpcs += o.local_rpcs;
    remote_rpcs += o.remote_rpcs;
    serial += o.serial;
    duplicate_calls += o.duplicate_calls;
    replayed_replies += o.replayed_replies;
    stray_replies += o.stray_replies;
    call_timeouts += o.call_timeouts;
    machine_down_failures += o.machine_down_failures;
    undeliverable_replies += o.undeliverable_replies;
    reply_cache_pins += o.reply_cache_pins;
    deadline_rejects += o.deadline_rejects;
    cancels_sent += o.cancels_sent;
    cancels_honored += o.cancels_honored;
    sheds += o.sheds;
    credit_stalls += o.credit_stalls;
    oneway_calls += o.oneway_calls;
    return *this;
  }

  friend bool operator==(const RmiStatsSnapshot&,
                         const RmiStatsSnapshot&) = default;

  // "new (MBytes)": allocation volume caused by deserialization (§5.2).
  double deserialization_mbytes() const {
    return static_cast<double>(serial.bytes_allocated) / (1024.0 * 1024.0);
  }
};

class RmiStats {
 public:
  using Counter = std::uint64_t RmiStatsSnapshot::*;

  // Bumps `counter` and, when given, `also` — an occurrence may imply a
  // second counter (a MachineDown is also a call timeout).
  void count(Counter counter, Counter also = nullptr) {
    std::scoped_lock lock(mu_);
    ++(snap_.*counter);
    if (also != nullptr) ++(snap_.*also);
  }
  void add_pass(const serial::SerialStats& pass) {
    std::scoped_lock lock(mu_);
    snap_.serial += pass;
  }

  RmiStatsSnapshot snapshot() const {
    std::scoped_lock lock(mu_);
    return snap_;
  }

 private:
  mutable std::mutex mu_;
  RmiStatsSnapshot snap_;
};

}  // namespace rmiopt::rmi
