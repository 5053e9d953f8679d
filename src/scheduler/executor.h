#ifndef PIPES_SCHEDULER_EXECUTOR_H_
#define PIPES_SCHEDULER_EXECUTOR_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "src/core/graph.h"
#include "src/core/pipe_edge.h"
#include "src/scheduler/profiler.h"
#include "src/scheduler/scheduler.h"
#include "src/scheduler/strategy.h"

/// \file
/// The executor-polled driver (DESIGN.md §4f): the non-recursive
/// counterpart of `SingleThreadScheduler`. On construction it attaches to
/// every node of the graph — each `Source<T>`-derived node creates a
/// `Pipe<T>` edge and reroutes its `Transfer*` calls into it — and the main
/// loop then alternates between two kinds of steps:
///
///  1. *Deliver*: pop the next ready pipe from the FIFO work queue and
///     deliver its staged columnar runs to the producer's subscribers. The
///     operators invoked stage their own output and enqueue their own
///     pipes, so a chain of any depth drains iteratively — the executor's
///     stack never grows with chain length.
///  2. *Poll*: when no pipe is ready, pick one active node (sources,
///     buffers) through the layer-2 `Strategy` — exactly like
///     `SingleThreadScheduler` — and give it a `DoWork` quantum, which
///     stages fresh supply.
///
/// Delivery order is deterministic (FIFO over ready pipes, strategy over
/// active nodes), so runs are reproducible and the fuzzer's differential
/// oracles can compare this driver against the recursive reference.
///
/// An executor can also drive a subset of a graph: the engine runs one per
/// *lane* (DESIGN.md §4g) plus one over the lanes' roots. A root's staged
/// pipe is `Feed`-ed to every lane that subscribes to it and delivered, in
/// the lane's FIFO order, to that lane's subscribers only.

namespace pipes::scheduler {

/// Deterministic one-thread, queue-driven driver.
class PipeExecutor : public ExecutorLink {
 public:
  /// Attaches to every node of `graph`. `batch_size` is the max work units
  /// per DoWork poll (Aurora-style train size), as in the schedulers.
  PipeExecutor(QueryGraph& graph, Strategy& strategy,
               std::size_t batch_size = 64)
      : PipeExecutor(graph.nodes(), strategy, batch_size) {}

  /// Attaches to `nodes` only; polling considers only their active nodes.
  /// Nodes outside the set keep direct delivery unless another executor
  /// attaches to them.
  PipeExecutor(std::vector<Node*> nodes, Strategy& strategy,
               std::size_t batch_size = 64);

  /// Detaches (pipes are destroyed; direct delivery is restored).
  ~PipeExecutor() override;

  PipeExecutor(const PipeExecutor&) = delete;
  PipeExecutor& operator=(const PipeExecutor&) = delete;

  /// One step: a pipe delivery if any pipe is ready, otherwise one DoWork
  /// quantum on a strategy-selected active node. Returns false when neither
  /// is possible (graph drained, or an external source still owes input).
  bool Step();

  /// One DoWork quantum on a strategy-selected active node, ready pipes or
  /// not. Returns false when no active node has work.
  bool Poll();

  /// Queues `pipe`, which another executor owns, behind this executor's
  /// ready pipes. `Step` delivers it with `DeliverTo(nodes())`, leaving the
  /// staged content for its owner to `Recycle`.
  void Feed(PipeBase* pipe) { ready_.push_back(pipe); }

  /// Moves the ready queue into `out`, in order. The pipes stay marked
  /// queued, so they are not announced again until `Recycle`d.
  void TakeReady(std::vector<PipeBase*>& out);

  /// The nodes this executor attached to, sorted by address.
  std::span<Node* const> nodes() const { return nodes_; }

  /// Runs until the graph is drained and every pipe is idle, or
  /// `max_iterations` steps were taken.
  RunStats RunToCompletion(
      std::uint64_t max_iterations = std::uint64_t{1} << 62);

  const RunStats& stats() const { return stats_; }

  /// Attaches a profiler: DoWork quanta are recorded like the schedulers
  /// record theirs; pipe deliveries are recorded against the producer node.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }

  /// True when every pipe has delivered everything staged.
  bool AllPipesIdle() const;

  /// Deepest observed nesting of `Deliver` calls. Structurally always 1 —
  /// delivery never recurses into another delivery — and asserted by the
  /// stack-safety tests; exposed so they do not need to instrument pipes.
  std::size_t max_deliver_nesting() const { return max_deliver_nesting_; }

 private:
  /// ExecutorLink: a pipe turned Supply — enqueue it (nothing else).
  void PipeReady(PipeBase* pipe) override;

  Strategy& strategy_;
  std::size_t batch_size_;
  RunStats stats_;
  Profiler* profiler_ = nullptr;

  /// Every node of the executor, sorted by address.
  std::vector<Node*> nodes_;
  /// The active ones, in the order given at construction.
  std::vector<Node*> active_;
  /// Scratch for `Poll`: the active nodes with work.
  std::vector<Node*> candidates_;
  /// Every pipe attached at construction, for detach and idle checks.
  std::vector<PipeBase*> pipes_;
  /// Nodes that returned a pipe, for detach.
  std::vector<Node*> attached_;
  /// Ready pipes in arrival order.
  std::deque<PipeBase*> ready_;

  std::size_t deliver_nesting_ = 0;
  std::size_t max_deliver_nesting_ = 0;
};

}  // namespace pipes::scheduler

#endif  // PIPES_SCHEDULER_EXECUTOR_H_
