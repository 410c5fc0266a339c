// The traced run's layer replay: one workload's own compiled call site and
// object graphs, fed through each layer's public entry points in turn so
// every layer gets its own host timing.
//
//   objmodel  Heap::alloc* + Heap::free_graph        (build and free graphs)
//   serial    SerialWriter::write / SerialReader::read[_reusing], per level
//   wire      wire::encode_frame / wire::decode_frame
//   net       Cluster::send -> Machine::receive_blocking on another thread
//   rmi       RmiSystem::invoke with a benchmark-owned handler
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "driver/compile.hpp"
#include "objmodel/heap.hpp"

namespace perfbench {

struct ReplaySubject {
  rmiopt::om::TypeRegistry* types = nullptr;
  // The site's compiled programs at the five paper levels, in paper order.
  const std::array<rmiopt::driver::CompiledProgram, 5>* programs = nullptr;
  std::uint32_t tag = 0;
  std::string export_class;  // class of the callee's exported object
  // Builds the call's argument graphs on `heap`; the caller frees them.
  std::function<std::vector<rmiopt::om::ObjRef>(rmiopt::om::Heap&)> make_args;
  // Builds the value the callee returns, owned by the callee like a page
  // table entry (null for a void method).
  std::function<rmiopt::om::ObjRef(rmiopt::om::Heap&)> make_return;
};

// Replays `rounds` calls per paper level through every layer and sets the
// replay's per-layer metrics on `report`.
void replay_layers(const ReplaySubject& subject, int rounds, SpanLog& log,
                   Report& report);

}  // namespace perfbench
