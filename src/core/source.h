#ifndef PIPES_CORE_SOURCE_H_
#define PIPES_CORE_SOURCE_H_

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/columnar.h"
#include "src/core/element.h"
#include "src/core/node.h"
#include "src/core/pipe_edge.h"
#include "src/core/port.h"
#include "src/core/trace.h"

/// \file
/// The source half of the publish-subscribe architecture: a node that
/// transfers elements of type `T` to its set of subscribed input ports
/// (the paper: "a source transfers its elements to a set of subscribed
/// sinks"). Subscriptions can be added and removed at runtime, which is how
/// the multi-query optimizer grafts new query plans onto a running graph.

namespace pipes {

/// A query-graph node with one output of element type `T`.
///
/// `Transfer*` members deliver directly (synchronously) to every subscribed
/// port — the queue-less connection the paper highlights. Subclasses must
/// transfer elements in non-decreasing `start()` order and must finish with
/// `TransferDone()`.
///
/// Under an attached `PipeExecutor` the same `Transfer*` calls *stage* into
/// this node's `Pipe<T>` edge instead of delivering synchronously; the
/// executor later polls the pipe and delivers the staged columnar runs
/// (DESIGN.md §4f). Output bookkeeping (order check, `last_start_`,
/// counters, trace) happens at staging time either way, so metrics are
/// identical on both paths.
///
/// Subscription changes must not happen from inside a Transfer call chain,
/// nor while an executor is attached.
template <typename T>
class Source : public Node {
 public:
  using Element = StreamElement<T>;

  explicit Source(std::string name) : Node(std::move(name)) {}

  /// Subscribes `port` to this source. The subscriber will see all elements
  /// transferred from now on. Equivalent to `port.SubscribeTo(*this)`,
  /// which is the spelling that reads in dataflow direction.
  void AddSubscriber(InputPort<T>& port) {
    const int slot = port.AddUpstream();
    subscriptions_.push_back({&port, slot});
    downstream_.push_back(port.owner_node());
    port.owner_node()->upstream_.push_back(this);
    // A late subscriber must not stall progress behind time that has already
    // elapsed on this source.
    if (last_start_ > kMinTimestamp) {
      port.ReceiveHeartbeat(slot, last_start_);
    }
    if (done_) {
      port.ReceiveDone(slot);
    }
  }

  /// Cancels the subscription of `port`. No-op status if not subscribed.
  Status UnsubscribeFrom(InputPort<T>& port) {
    auto it = std::find_if(
        subscriptions_.begin(), subscriptions_.end(),
        [&](const Subscription& s) { return s.port == &port; });
    if (it == subscriptions_.end()) {
      return Status::NotFound("port is not subscribed to source " + name());
    }
    port.RemoveUpstream(it->slot);
    subscriptions_.erase(it);
    EraseOneTopologyEdge(port.owner_node());
    return Status::OK();
  }

  std::size_t num_subscribers() const { return subscriptions_.size(); }

  /// True once TransferDone was called.
  bool output_done() const { return done_; }

  /// Largest element start transferred so far (the source's implicit
  /// heartbeat level).
  Timestamp last_start() const { return last_start_; }

  /// Creates this source's `Pipe<T>` and reroutes `Transfer*` into it.
  PipeBase* AttachExecutor(ExecutorLink* link) override {
    PIPES_CHECK(stage_ == nullptr);
    pipe_ = std::make_unique<Pipe<T>>(this, link);
    stage_ = pipe_.get();
    executor_attached_ = true;
    return pipe_.get();
  }

  void DetachExecutor() override {
    if (stage_ != nullptr) {
      PIPES_CHECK(!stage_->HasStaged());
      stage_ = nullptr;
      pipe_.reset();
      executor_attached_ = false;
    }
  }

 protected:
  /// Delivers `element` to all subscribers. Enforces (in debug builds) the
  /// non-decreasing start-order invariant.
  void Transfer(const Element& element) {
    PIPES_DCHECK(!done_);
    PIPES_DCHECK(element.start() >= last_start_ ||
                 last_start_ == kMinTimestamp);
    last_start_ = std::max(last_start_, element.start());
    CountOut();
    this->AdvanceProgress(last_start_);
    trace::RecordHop(this->id(), element.start(), trace::Hop::kEmit);
    if (stage_ != nullptr) {
      stage_->StageElement(element);
      return;
    }
    for (const Subscription& s : subscriptions_) {
      s.port->Receive(s.slot, element);
    }
  }

  /// Delivers a whole run of elements to all subscribers in one call.
  /// `batch` must be ordered by non-decreasing start and must not start
  /// before anything already transferred; control signals never ride inside
  /// a batch (use TransferHeartbeat / TransferDone). Bookkeeping
  /// (`last_start_`, counters) updates once per batch, and each subscriber
  /// pays one virtual dispatch + one watermark merge instead of one per
  /// element. `TransferBatch` on a single-element span is semantically
  /// identical to `Transfer`.
  void TransferBatch(std::span<const Element> batch) {
    if (batch.empty()) return;
    PIPES_DCHECK(!done_);
    PIPES_DCHECK(batch.front().start() >= last_start_ ||
                 last_start_ == kMinTimestamp);
    PIPES_DCHECK(std::is_sorted(batch.begin(), batch.end(),
                                [](const Element& a, const Element& b) {
                                  return a.start() < b.start();
                                }));
    last_start_ = std::max(last_start_, batch.back().start());
    CountOut(batch.size());
    this->CountBatchOut();
    this->AdvanceProgress(last_start_);
    trace::RecordBatchHops(this->id(), batch.data(), batch.size(),
                           trace::Hop::kEmit);
    if (stage_ != nullptr) {
      stage_->StageBatch(batch);
      return;
    }
    for (const Subscription& s : subscriptions_) {
      s.port->ReceiveBatch(s.slot, batch);
    }
  }

  /// `TransferBatch` for a columnar run: same ordering contract and
  /// bookkeeping, but the elements stay in SoA layout end to end —
  /// subscribers receive it through `ReceiveRun`/`PortRun`, so two columnar
  /// kernels compose without ever materializing `StreamElement`s between
  /// them.
  void TransferRun(const ColumnarRun<T>& run) {
    if (run.empty()) return;
    BookkeepRunTransfer(run);
    if (stage_ != nullptr) {
      stage_->StageRun(run);
      return;
    }
    for (const Subscription& s : subscriptions_) {
      s.port->ReceiveRun(s.slot, run);
    }
  }

  /// Consuming `TransferRun`: under an executor the columns are swapped
  /// into the pipe's staged entry instead of copied, and `run` comes back
  /// cleared with recycled capacity — so an operator that keeps one scratch
  /// run and hands it off every flush stages with zero copies and zero
  /// allocations in steady state. On the direct path `run` is left intact
  /// (treat it as unspecified and `clear()` before reuse either way).
  void TransferRun(ColumnarRun<T>&& run) {
    if (run.empty()) return;
    BookkeepRunTransfer(run);
    if (stage_ != nullptr) {
      stage_->StageRun(std::move(run));
      return;
    }
    for (const Subscription& s : subscriptions_) {
      s.port->ReceiveRun(s.slot, run);
    }
  }

  /// Promises that no future element will have `start() < t`.
  void TransferHeartbeat(Timestamp t) {
    PIPES_DCHECK(!done_);
    if (t <= last_start_) return;
    last_start_ = t;
    this->AdvanceProgress(t);
    if (stage_ != nullptr) {
      stage_->StageHeartbeat(t);
      return;
    }
    for (const Subscription& s : subscriptions_) {
      s.port->ReceiveHeartbeat(s.slot, t);
    }
  }

  /// Signals end-of-stream to all subscribers. Idempotent.
  void TransferDone() {
    if (done_) return;
    done_ = true;
    // End-of-stream pins this node's progress clock at +inf, matching the
    // kMaxTimestamp watermark the subscribers will report — a drained graph
    // shows zero watermark lag everywhere.
    this->AdvanceProgress(kMaxTimestamp);
    if (stage_ != nullptr) {
      stage_->StageDone();
      return;
    }
    for (const Subscription& s : subscriptions_) {
      s.port->ReceiveDone(s.slot);
    }
  }

 private:
  template <typename U>
  friend class Pipe;

  /// The shared order-check/bookkeeping block of both `TransferRun`
  /// overloads (`run` is non-empty here).
  void BookkeepRunTransfer(const ColumnarRun<T>& run) {
    PIPES_DCHECK(!done_);
    PIPES_DCHECK(run.starts.front() >= last_start_ ||
                 last_start_ == kMinTimestamp);
    PIPES_DCHECK(std::is_sorted(run.starts.begin(), run.starts.end()));
    PIPES_DCHECK(run.ends.size() == run.starts.size() &&
                 run.payloads.size() == run.starts.size());
    last_start_ = std::max(last_start_, run.starts.back());
    CountOut(run.size());
    this->CountBatchOut();
    this->AdvanceProgress(last_start_);
    trace::RecordRunHops(this->id(), run.starts.data(), run.size(),
                         trace::Hop::kEmit);
  }

  struct Subscription {
    InputPort<T>* port;
    int slot;
  };

  // --- Staged delivery (called from Pipe<T>::Deliver/DeliverTo) ------------
  // Bookkeeping already happened at staging time; these only run the
  // subscriber loops. The downstream operators they invoke stage into their
  // own pipes, so the call depth is constant regardless of chain length.
  // `lane` (sorted node addresses) restricts delivery to the subscribers
  // those nodes own; nullptr delivers to every subscriber.

  bool Serves(const Subscription& s, const std::span<Node* const>* lane) const {
    return lane == nullptr ||
           std::binary_search(lane->begin(), lane->end(),
                              s.port->owner_node());
  }

  void DeliverStagedRun(const ColumnarRun<T>& run,
                        const std::span<Node* const>* lane) {
    for (const Subscription& s : subscriptions_) {
      if (Serves(s, lane)) s.port->ReceiveRun(s.slot, run);
    }
  }

  void DeliverStagedHeartbeat(Timestamp t,
                              const std::span<Node* const>* lane) {
    for (const Subscription& s : subscriptions_) {
      if (Serves(s, lane)) s.port->ReceiveHeartbeat(s.slot, t);
    }
  }

  void DeliverStagedDone(const std::span<Node* const>* lane) {
    for (const Subscription& s : subscriptions_) {
      if (Serves(s, lane)) s.port->ReceiveDone(s.slot);
    }
  }

  void EraseOneTopologyEdge(Node* down) {
    auto dit = std::find(downstream_.begin(), downstream_.end(), down);
    if (dit != downstream_.end()) downstream_.erase(dit);
    auto& ups = down->upstream_;
    auto uit = std::find(ups.begin(), ups.end(), static_cast<Node*>(this));
    if (uit != ups.end()) ups.erase(uit);
  }

  std::vector<Subscription> subscriptions_;
  Timestamp last_start_ = kMinTimestamp;
  bool done_ = false;
  /// Non-null while a `PipeExecutor` is attached: `Transfer*` stages here.
  Pipe<T>* stage_ = nullptr;
  std::unique_ptr<Pipe<T>> pipe_;
};

// Out-of-line so port.h (which source.h includes) only needs the forward
// declaration of Source<T>.
template <typename T>
void InputPort<T>::SubscribeTo(Source<T>& source) {
  source.AddSubscriber(*this);
}

// --- Pipe<T> member definitions --------------------------------------------
// Out-of-line here (not in pipe_edge.h) because they call into Source<T>'s
// private staged-delivery methods; every TU that instantiates Source<T> —
// and hence Pipe<T>, created only by AttachExecutor above — sees them.

template <typename T>
Pipe<T>::Pipe(Source<T>* source, ExecutorLink* link)
    : PipeBase(source, link), source_(source) {}

template <typename T>
std::size_t Pipe<T>::Deliver() {
  delivering_.clear();
  delivering_.swap(entries_);
  const std::size_t units = staged_units_;
  staged_units_ = 0;
  ResetToIdle();
  DeliverEntries(delivering_, nullptr);
  ReleaseToPool(delivering_);
  return units;
}

template <typename T>
std::size_t Pipe<T>::DeliverTo(std::span<Node* const> lane) const {
  DeliverEntries(entries_, &lane);
  return staged_units_;
}

template <typename T>
std::size_t Pipe<T>::Recycle() {
  const std::size_t units = staged_units_;
  staged_units_ = 0;
  ReleaseToPool(entries_);
  ResetToIdle();
  ClearInQueue();
  return units;
}

template <typename T>
void Pipe<T>::ReleaseToPool(std::vector<Entry>& entries) {
  for (Entry& entry : entries) {
    entry.run.clear();
    pool_.push_back(std::move(entry));
  }
  entries.clear();
}

template <typename T>
void Pipe<T>::DeliverEntries(const std::vector<Entry>& entries,
                             const std::span<Node* const>* lane) const {
  for (const Entry& entry : entries) {
    switch (entry.kind) {
      case Entry::kRun:
        if (!entry.run.empty()) source_->DeliverStagedRun(entry.run, lane);
        break;
      case Entry::kHeartbeat:
        source_->DeliverStagedHeartbeat(entry.heartbeat, lane);
        break;
      case Entry::kDone:
        source_->DeliverStagedDone(lane);
        break;
    }
  }
}

}  // namespace pipes

#endif  // PIPES_CORE_SOURCE_H_
