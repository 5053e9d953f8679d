#ifndef PIPES_ALGEBRA_PARALLEL_H_
#define PIPES_ALGEBRA_PARALLEL_H_

#include <cstddef>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/algebra/aggregate.h"
#include "src/algebra/distinct.h"
#include "src/algebra/join.h"
#include "src/algebra/window.h"
#include "src/core/buffer.h"
#include "src/core/graph.h"
#include "src/core/parallel.h"
#include "src/scheduler/scheduler.h"

/// \file
/// QueryGraph-level keyed replication: clone an operator into N shared-
/// nothing replicas between a `Partition` and a `Merge`. Only operators
/// whose state decomposes by the partitioning key are safe to replicate —
/// grouped aggregates, duplicate elimination, partitioned windows, and
/// equi-joins keyed on the join attribute. Everything else (scalar
/// aggregates, count windows, unions, non-equi joins) would compute wrong
/// answers from a keyed subset of the stream, so the helpers refuse them at
/// compile time via the `KeyPartitionable` trait.
///
/// Correctness requirement on the caller: the partitioning key must refine
/// the operator's own grouping — every element of one group (one distinct
/// payload, one window partition, one join key) must land in the same
/// replica. Passing the operator's own key function satisfies this.

namespace pipes::algebra {

// --- Safety trait -----------------------------------------------------------

/// True for operators whose state is disjoint across partition keys, which
/// makes N keyed replicas element-for-element equivalent to one instance.
/// The default is false: refusal, not permission, is the baseline.
template <typename Op>
struct KeyPartitionable : std::false_type {};

/// Grouped aggregation: one sweep-line per key; keys never interact.
template <typename In, typename Agg, typename KeyFn, typename ValueFn>
struct KeyPartitionable<GroupedAggregate<In, Agg, KeyFn, ValueFn>>
    : std::true_type {};

/// Duplicate elimination: interval coalescing is per distinct payload.
template <typename T>
struct KeyPartitionable<Distinct<T>> : std::true_type {};

/// Partitioned (per-key ROWS) window: one deque per key.
template <typename T, typename KeyFn>
struct KeyPartitionable<PartitionedWindow<T, KeyFn>> : std::true_type {};

/// Equi-joins (hash SweepAreas on both sides) keyed on the join attribute:
/// matching pairs co-locate when both inputs partition by their join keys
/// under the same hash. A residual predicate only filters pairs within one
/// key bucket, so any residual keeps that property. Theta/band joins
/// (list/tree SweepAreas) stay false: a pair can match across partition
/// boundaries.
template <typename L, typename R, typename Out, typename KeyL, typename KeyR,
          typename ResL, typename ResR, typename Combine>
struct KeyPartitionable<
    TemporalJoin<L, R, Out, sweeparea::HashSweepArea<L, R, KeyL, KeyR, ResL>,
                 sweeparea::HashSweepArea<R, L, KeyR, KeyL, ResR>, Combine>>
    : std::true_type {};

/// The spillable variant is keyed the same way: spilled runs hold only
/// this replica's keys, so state stays disjoint across replicas.
template <typename L, typename R, typename Out, typename KeyL, typename KeyR,
          typename ResL, typename ResR, typename Combine>
struct KeyPartitionable<TemporalJoin<
    L, R, Out, sweeparea::SpillableHashSweepArea<L, R, KeyL, KeyR, ResL>,
    sweeparea::SpillableHashSweepArea<R, L, KeyR, KeyL, ResR>, Combine>>
    : std::true_type {};

// --- Replicated-stage handles ----------------------------------------------

/// Untyped topology of one replicated stage, for scheduler pinning and for
/// inspecting per-partition skew (`splitters[...]->PartitionCounts()`).
struct ParallelTopology {
  /// The Partition node(s): one for a unary stage, two for a join.
  std::vector<Node*> splitters;
  Node* merge = nullptr;
  /// Replica operator nodes, by replica index.
  std::vector<Node*> replicas;
  /// Active (`ConcurrentBuffer`) nodes feeding each replica. All buffers of
  /// one replica must run on one worker: the replica operator is passive
  /// state driven by whichever worker drains them.
  std::vector<std::vector<Node*>> replica_inputs;
  /// Active buffers carrying each replica's output into the merge. These
  /// must all run on one worker — `Merge` is passive shared state.
  std::vector<Node*> replica_outputs;

  /// ThreadScheduler assignment pinning replica i's input buffers to worker
  /// 1 + (i % (num_workers - 1)) and everything else — upstream sources,
  /// the merge-side buffers, unrelated active nodes — to worker 0. With
  /// num_workers = replicas + 1, every replica chain gets its own worker.
  /// num_workers <= 1 degenerates to all-on-worker-0.
  std::vector<int> PinnedAssignment(const QueryGraph& graph,
                                    int num_workers) const {
    std::unordered_map<const Node*, int> worker_of;
    if (num_workers > 1) {
      for (std::size_t r = 0; r < replica_inputs.size(); ++r) {
        for (const Node* buffer : replica_inputs[r]) {
          worker_of[buffer] = 1 + static_cast<int>(r % (num_workers - 1));
        }
      }
    }
    return scheduler::MakeAssignment(graph, worker_of);
  }
};

/// Handles of a replicated unary stage: route upstream into `input`,
/// subscribe downstream to `output`.
template <typename In, typename Out>
struct ParallelChain : ParallelTopology {
  InputPort<In>* input = nullptr;
  Source<Out>* output = nullptr;
};

/// Handles of a replicated equi-join: two partitioned inputs, one merged
/// output.
template <typename L, typename R, typename Out>
struct ParallelJoinChain : ParallelTopology {
  InputPort<L>* left = nullptr;
  InputPort<R>* right = nullptr;
  Source<Out>* output = nullptr;
};

// --- Replication helpers ----------------------------------------------------

/// Clones the unary operator `OpT` into `n` keyed replicas:
///
///     upstream -> Partition -+-> buf -> OpT#0 -> buf -+-> Merge -> ...
///                            +-> buf -> OpT#1 -> buf -+
///
/// Each replica is constructed from a copy of `args...` (so the same
/// functors/parameters as the single-replica form), decoupled by
/// `ConcurrentBuffer`s so `ThreadScheduler` can drive each chain on its own
/// worker (see `ParallelTopology::PinnedAssignment`). Refuses operators
/// that are not key-partitionable at compile time.
template <typename OpT, typename KeyFn, typename... Args>
auto MakeKeyedParallel(QueryGraph& graph, std::size_t n, KeyFn key_fn,
                       const Args&... args) {
  static_assert(
      KeyPartitionable<OpT>::value,
      "MakeKeyedParallel: operator state does not decompose by key — only "
      "grouped aggregates, Distinct, PartitionedWindow, and hash equi-joins "
      "are safe to replicate (see docs/operators.md)");
  using In = typename OpT::InputType;
  using Out = typename OpT::OutputType;
  PIPES_CHECK(n > 0);

  ParallelChain<In, Out> chain;
  auto& split = graph.Add<Partition<In, KeyFn>>(n, std::move(key_fn));
  auto& merge = graph.Add<Merge<Out>>(n);
  chain.splitters.push_back(&split);
  chain.merge = &merge;
  chain.input = &split.input();
  chain.output = &merge;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string suffix = "-" + std::to_string(i);
    auto& in_buf = graph.Add<ConcurrentBuffer<In>>("replica-in" + suffix);
    auto& op = graph.Add<OpT>(args...);
    op.set_name(op.name() + suffix);
    auto& out_buf = graph.Add<ConcurrentBuffer<Out>>("replica-out" + suffix);
    split.AddSubscriber(i, in_buf.input());
    in_buf.AddSubscriber(op.input());
    op.AddSubscriber(out_buf.input());
    out_buf.AddSubscriber(merge.input(i));
    chain.replicas.push_back(&op);
    chain.replica_inputs.push_back({&in_buf});
    chain.replica_outputs.push_back(&out_buf);
  }
  return chain;
}

/// Clones a hash equi-join into `n` keyed replicas: both inputs partition
/// by their join keys (same `std::hash`, same modulus, so matching keys
/// co-locate), each replica joins its key subset, and the merge restores
/// global order. Both of a replica's input buffers must be driven by one
/// worker — `PinnedAssignment` guarantees that.
///
/// The two key extractors must yield the same key type (as the hash join
/// itself requires): partitioning relies on hash(key_l(l)) == hash(key_r(r))
/// whenever the keys are equal. `residual` is passed to every replica
/// (`MakeHashJoin`).
template <typename L, typename R, typename KeyL, typename KeyR,
          typename Combine, typename Residual = sweeparea::TruePredicate>
auto MakeParallelHashJoin(QueryGraph& graph, std::size_t n, KeyL key_l,
                          KeyR key_r, Combine combine,
                          std::string name = "hash-join",
                          Residual residual = Residual()) {
  static_assert(
      std::is_same_v<std::decay_t<std::invoke_result_t<KeyL, const L&>>,
                     std::decay_t<std::invoke_result_t<KeyR, const R&>>>,
      "MakeParallelHashJoin: both key extractors must yield the same key "
      "type, or the two Partition nodes would hash-route inconsistently");
  using Out = std::decay_t<std::invoke_result_t<Combine, const L&, const R&>>;
  PIPES_CHECK(n > 0);

  ParallelJoinChain<L, R, Out> chain;
  auto& lsplit =
      graph.Add<Partition<L, KeyL>>(n, key_l, name + "-partition-l");
  auto& rsplit =
      graph.Add<Partition<R, KeyR>>(n, key_r, name + "-partition-r");
  auto& merge = graph.Add<Merge<Out>>(n, name + "-merge");
  chain.splitters = {&lsplit, &rsplit};
  chain.merge = &merge;
  chain.left = &lsplit.input();
  chain.right = &rsplit.input();
  chain.output = &merge;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string suffix = "-" + std::to_string(i);
    auto& lbuf = graph.Add<ConcurrentBuffer<L>>(name + "-in-l" + suffix);
    auto& rbuf = graph.Add<ConcurrentBuffer<R>>(name + "-in-r" + suffix);
    auto& join =
        graph.Add(MakeHashJoin<L, R>(key_l, key_r, combine, name + suffix,
                                     residual));
    static_assert(
        KeyPartitionable<
            std::remove_reference_t<decltype(join)>>::value,
        "hash equi-joins must satisfy the KeyPartitionable trait");
    auto& out_buf = graph.Add<ConcurrentBuffer<Out>>(name + "-out" + suffix);
    lsplit.AddSubscriber(i, lbuf.input());
    rsplit.AddSubscriber(i, rbuf.input());
    lbuf.AddSubscriber(join.left());
    rbuf.AddSubscriber(join.right());
    join.AddSubscriber(out_buf.input());
    out_buf.AddSubscriber(merge.input(i));
    chain.replicas.push_back(&join);
    chain.replica_inputs.push_back({&lbuf, &rbuf});
    chain.replica_outputs.push_back(&out_buf);
  }
  return chain;
}

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_PARALLEL_H_
