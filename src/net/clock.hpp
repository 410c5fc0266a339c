// Per-machine virtual clock.
//
// Each simulated machine is single-CPU (the paper's nodes were 1 GHz
// Pentium IIIs), so CPU work done by any thread of a machine *adds* to its
// clock, and message arrival *merges* (max) the sender-determined arrival
// time into it.  advance() from concurrent threads therefore models the
// serialization of work on one CPU, which is exactly right for the
// simulation.
#pragma once

#include <mutex>

#include "support/sim_time.hpp"

namespace rmiopt::net {

class VirtualClock {
 public:
  VirtualClock() = default;
  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  void advance(SimTime d) {
    std::scoped_lock lock(mu_);
    now_ += d;
  }

  // now = max(now, t); returns true if the clock had to jump forward
  // (i.e. the event was waited for rather than already past).
  bool merge_at_least(SimTime t) {
    std::scoped_lock lock(mu_);
    if (now_ < t) {
      now_ = t;
      return true;
    }
    return false;
  }

  SimTime now() const {
    std::scoped_lock lock(mu_);
    return now_;
  }

 private:
  mutable std::mutex mu_;
  SimTime now_;
};

}  // namespace rmiopt::net
