#ifndef PIPES_CORE_PARALLEL_H_
#define PIPES_CORE_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/common/time.h"
#include "src/core/element.h"
#include "src/core/key.h"
#include "src/core/node.h"
#include "src/core/ordered_buffer.h"
#include "src/core/port.h"
#include "src/core/source.h"

/// \file
/// Keyed data-parallel execution for the pub-sub core: `Partition` splits
/// one ordered stream into N keyed sub-streams (shared-nothing: every
/// element of one key goes to the same partition), `Merge` recombines the
/// N replica outputs into one globally start-ordered stream.
///
/// The parallelism contract (DESIGN.md "Keyed parallelism"):
///  * Each partition output is one ordered run per replica — a subsequence
///    of the input preserves non-decreasing start order, so a replica sees
///    a stream indistinguishable from a slower single-replica input.
///  * Heartbeats (and end-of-stream) are *broadcast* to all partitions:
///    an element routed to partition i advances time for every partition,
///    so idle replicas purge state and release results at the same pace as
///    busy ones.
///  * `Merge` restores global (start, arrival) order, released by the
///    minimum watermark over its replica inputs. Among equal starts the
///    interleaving across replicas follows arrival order and is therefore
///    scheduling-dependent; per replica it is deterministic.

namespace pipes {

/// Splitter with one input and `num_partitions` keyed outputs. Elements
/// hash-route by `std::hash` of `key_fn(payload)` (read through the key's
/// borrowed view when `key_fn` has one, src/core/key.h); batches route as one
/// per-partition run each (one `ReceiveBatch` per non-empty partition), so
/// the batched path stays batched end-to-end through the split.
///
/// Downstream ports subscribe to a specific partition via
/// `AddSubscriber(i, port)`. Per-partition output counts are exposed
/// through `Node::PartitionCounts` for the snapshot layer's skew metric.
template <typename T, typename KeyFn>
class Partition : public Node, public PortOwner<T> {
 public:
  Partition(std::size_t num_partitions, KeyFn key_fn,
            std::string name = "partition")
      : Node(std::move(name)),
        key_fn_(std::move(key_fn)),
        outputs_(num_partitions),
        counts_(std::make_unique<std::atomic<std::uint64_t>[]>(
            num_partitions)),
        runs_(num_partitions),
        input_(this, this, 0) {
    PIPES_CHECK(num_partitions > 0);
    for (std::size_t i = 0; i < num_partitions; ++i) {
      counts_[i].store(0, std::memory_order_relaxed);
    }
  }

  InputPort<T>& input() { return input_; }
  std::size_t num_partitions() const { return outputs_.size(); }

  /// Subscribes `port` to partition `index`. Late subscribers immediately
  /// see the partition's current heartbeat level (and done, if signalled),
  /// mirroring `Source::AddSubscriber`.
  void AddSubscriber(std::size_t index, InputPort<T>& port) {
    PIPES_CHECK(index < outputs_.size());
    PartitionOutput& out = outputs_[index];
    const int slot = port.AddUpstream();
    out.subscriptions.push_back({&port, slot});
    downstream_.push_back(port.owner_node());
    port.owner_node()->upstream_.push_back(this);
    if (out.level > kMinTimestamp) {
      port.ReceiveHeartbeat(slot, out.level);
    }
    if (done_) {
      port.ReceiveDone(slot);
    }
  }

  /// The partition an element with this payload routes to.
  std::size_t PartitionIndex(const T& payload) const {
    return KeyHash()(LookupKey(key_fn_, payload)) % outputs_.size();
  }

  /// Elements routed to partition `index` so far.
  std::uint64_t partition_elements(std::size_t index) const {
    PIPES_CHECK(index < outputs_.size());
    return counts_[index].load(std::memory_order_relaxed);
  }

  std::vector<std::uint64_t> PartitionCounts() const override {
    std::vector<std::uint64_t> counts(outputs_.size());
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
      counts[i] = counts_[i].load(std::memory_order_relaxed);
    }
    return counts;
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d;
    d.kind = NodeDescriptor::Kind::kPartition;
    d.op = "partition";
    d.port_upstreams = {input_.num_upstreams()};
    d.has_batch_kernel = true;
    d.has_columnar_kernel = true;
    d.fan_out = outputs_.size();
    d.output_subscribers.resize(outputs_.size());
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
      for (const Subscription& s : outputs_[i].subscriptions) {
        d.output_subscribers[i].push_back(s.port->owner_node());
      }
    }
    return d;
  }

 protected:
  void PortElement(int /*port_id*/, const StreamElement<T>& e) override {
    const std::size_t p = PartitionIndex(e.payload);
    counts_[p].fetch_add(1, std::memory_order_relaxed);
    CountOut();
    PartitionOutput& out = outputs_[p];
    PIPES_DCHECK(e.start() >= out.level || out.level == kMinTimestamp);
    out.level = std::max(out.level, e.start());
    for (const Subscription& s : out.subscriptions) {
      s.port->Receive(s.slot, e);
    }
  }

  /// Routes the batch into per-partition runs and delivers one
  /// `ReceiveBatch` per non-empty partition. A subsequence of an ordered
  /// run is ordered, so every sub-run satisfies the batch contract.
  void PortBatch(int /*port_id*/,
                 std::span<const StreamElement<T>> batch) override {
    for (auto& run : runs_) run.clear();
    for (const StreamElement<T>& e : batch) {
      runs_[PartitionIndex(e.payload)].push_back(e);
    }
    for (std::size_t p = 0; p < outputs_.size(); ++p) {
      if (runs_[p].empty()) continue;
      counts_[p].fetch_add(runs_[p].size(), std::memory_order_relaxed);
      CountOut(runs_[p].size());
      CountBatchOut();
      PartitionOutput& out = outputs_[p];
      out.level = std::max(out.level, runs_[p].back().start());
      for (const Subscription& s : out.subscriptions) {
        s.port->ReceiveBatch(s.slot, runs_[p]);
      }
    }
  }

  /// Columnar kernel: routes the run into per-partition columnar sub-runs
  /// and delivers one `ReceiveRun` per non-empty partition, so the columnar
  /// path stays columnar through the split.
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    if (col_runs_.empty()) col_runs_.resize(outputs_.size());
    for (auto& r : col_runs_) r.clear();
    const std::size_t n = run.size();
    for (std::size_t i = 0; i < n; ++i) {
      col_runs_[PartitionIndex(run.payloads[i])].Append(
          run.payloads[i], run.starts[i], run.ends[i]);
    }
    for (std::size_t p = 0; p < outputs_.size(); ++p) {
      if (col_runs_[p].empty()) continue;
      counts_[p].fetch_add(col_runs_[p].size(), std::memory_order_relaxed);
      CountOut(col_runs_[p].size());
      CountBatchOut();
      PartitionOutput& out = outputs_[p];
      out.level = std::max(out.level, col_runs_[p].starts.back());
      for (const Subscription& s : out.subscriptions) {
        s.port->ReceiveRun(s.slot, col_runs_[p]);
      }
    }
  }

  /// Heartbeats broadcast: every partition's clock advances, whether or
  /// not it received the elements that drove the watermark.
  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    for (PartitionOutput& out : outputs_) {
      if (watermark <= out.level) continue;
      out.level = watermark;
      for (const Subscription& s : out.subscriptions) {
        s.port->ReceiveHeartbeat(s.slot, watermark);
      }
    }
  }

  void PortDone(int /*port_id*/) override {
    if (done_) return;
    done_ = true;
    AdvanceProgress(kMaxTimestamp);
    for (PartitionOutput& out : outputs_) {
      for (const Subscription& s : out.subscriptions) {
        s.port->ReceiveDone(s.slot);
      }
    }
  }

 private:
  struct Subscription {
    InputPort<T>* port;
    int slot;
  };
  /// One keyed output: its subscriber set and the largest start/heartbeat
  /// delivered so far (the level replayed to late subscribers).
  struct PartitionOutput {
    std::vector<Subscription> subscriptions;
    Timestamp level = kMinTimestamp;
  };

  KeyFn key_fn_;
  std::vector<PartitionOutput> outputs_;
  /// Routed-element counters, one per partition; atomics because the
  /// snapshot layer reads them while a scheduler thread routes.
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  /// PortBatch scratch: per-partition runs of the batch being routed.
  std::vector<std::vector<StreamElement<T>>> runs_;
  /// PortRun scratch: per-partition columnar sub-runs (lazily sized).
  std::vector<ColumnarRun<T>> col_runs_;
  bool done_ = false;
  InputPort<T> input_;
};

/// Order-restoring combiner: one input port per replica, one output. Each
/// replica delivers one ordered run (the Partition contract), so recombining
/// is the union staging problem n-ary: stage arrivals in an
/// `OrderedOutputBuffer` keyed (start, arrival seq) and release everything
/// below the minimum watermark over all replica inputs as one batch.
template <typename T>
class Merge : public Source<T>, public PortOwner<T> {
 public:
  explicit Merge(std::size_t fan_in, std::string name = "merge")
      : Source<T>(std::move(name)) {
    PIPES_CHECK(fan_in > 0);
    ports_.reserve(fan_in);
    for (std::size_t i = 0; i < fan_in; ++i) {
      ports_.push_back(
          std::make_unique<InputPort<T>>(this, this, static_cast<int>(i)));
    }
  }

  /// The input carrying replica `i`'s output.
  InputPort<T>& input(std::size_t i) {
    PIPES_CHECK(i < ports_.size());
    return *ports_[i];
  }
  std::size_t fan_in() const { return ports_.size(); }

  std::size_t ApproxMemoryBytes() const override {
    return staged_.size() * (sizeof(StreamElement<T>) + 16);
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d;
    d.kind = NodeDescriptor::Kind::kMerge;
    d.op = "merge";
    d.port_upstreams.reserve(ports_.size());
    for (const auto& port : ports_) {
      d.port_upstreams.push_back(port->num_upstreams());
    }
    d.has_batch_kernel = true;
    d.has_columnar_kernel = true;
    d.fan_in = ports_.size();
    // Order-restoring staging: occupancy tracks replica scheduling skew,
    // not watermark progress.
    d.dataflow.transient_state = true;
    return d;
  }

 protected:
  void PortElement(int /*port_id*/, const StreamElement<T>& e) override {
    staged_.Push(e);
  }

  /// Batch kernel: stage the run; the one progress notification that
  /// follows the batch does a single flush.
  void PortBatch(int /*port_id*/,
                 std::span<const StreamElement<T>> batch) override {
    for (const StreamElement<T>& e : batch) staged_.Push(e);
  }

  /// Columnar kernel: stage straight from the columns.
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) {
      staged_.Push(run.ElementAt(i));
    }
  }

  void PortProgress(int /*port_id*/, Timestamp /*watermark*/) override {
    const Timestamp combined = CombinedWatermark();
    FlushBatched(combined);
    if (combined < kMaxTimestamp) {
      this->TransferHeartbeat(combined);
    }
  }

  void PortDone(int /*port_id*/) override {
    if (AllDone()) {
      FlushBatched(kMaxTimestamp);
      this->TransferDone();
    } else {
      // One replica finished; progress is governed by the others (a done
      // port reports kMaxTimestamp and drops out of the minimum).
      PortProgress(0, CombinedWatermark());
    }
  }

 private:
  /// min over all replica inputs: no future arrival starts before this.
  Timestamp CombinedWatermark() const {
    Timestamp min_wm = kMaxTimestamp;
    for (const auto& port : ports_) {
      min_wm = std::min(min_wm, port->watermark());
    }
    return min_wm;
  }

  bool AllDone() const {
    for (const auto& port : ports_) {
      if (!port->done()) return false;
    }
    return true;
  }

  /// Releases everything ripe below `watermark` as one downstream columnar
  /// run.
  void FlushBatched(Timestamp watermark) {
    out_run_.clear();
    staged_.FlushUpTo(watermark, [this](const StreamElement<T>& e) {
      out_run_.Append(e);
    });
    this->TransferRun(std::move(out_run_));
  }

  std::vector<std::unique_ptr<InputPort<T>>> ports_;
  OrderedOutputBuffer<T> staged_;
  ColumnarRun<T> out_run_;
};

}  // namespace pipes

#endif  // PIPES_CORE_PARALLEL_H_
