#ifndef PIPES_CORE_PIPE_EDGE_H_
#define PIPES_CORE_PIPE_EDGE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/macros.h"
#include "src/common/time.h"
#include "src/core/columnar.h"
#include "src/core/element.h"

/// \file
/// The `Pipe` edge object of the executor-polled execution model
/// (DESIGN.md §4f). On the classic publish-subscribe path a `Transfer*`
/// call recurses synchronously through the whole subscriber chain; under a
/// `PipeExecutor` every `Source<T>` instead *stages* its output into a
/// `Pipe<T>` — a stateful edge that owns the staged columnar run — and the
/// executor polls ready pipes from a FIFO work queue. Delivery of one
/// pipe's staged content makes the downstream operators stage into *their*
/// pipes, so a chain of any depth drains iteratively with constant stack.
///
/// A pipe is a three-state machine (after fleximg's IDEA_PIPELINE_V2):
///
///     Idle ──poll──▶ Request ──stage──▶ Supply ──deliver──▶ Idle
///              ▲                          │
///              └────────── stage ─────────┘   (passive producers skip
///                                              Request: Idle → Supply)
///
/// * `Idle`    — nothing staged; the edge is quiescent.
/// * `Request` — the executor has polled the producer (`DoWork`) and the
///               edge awaits its supply.
/// * `Supply`  — staged runs/control signals await delivery; the pipe is in
///               (or headed for) the executor's ready queue.
///
/// Outside `Deliver()` a pipe only changes state and notifies its executor
/// — it never calls downstream. That is the entire non-recursion argument.
///
/// A pipe whose subscribers are spread over several executors (a root of
/// the engine's lanes, DESIGN.md §4g) is not delivered with `Deliver()`:
/// each executor calls `DeliverTo` with its own nodes, reading the staged
/// content without consuming it, and the pipe's owner `Recycle`s it once
/// every one of them is done.

namespace pipes {

class Node;
class PipeBase;
template <typename T>
class Source;

/// State of a pipe edge.
enum class PipeState {
  kIdle,     ///< Nothing staged.
  kRequest,  ///< Producer polled; awaiting its supply.
  kSupply,   ///< Staged content awaits delivery.
};

/// Readable name of a pipe state ("idle", "request", "supply").
inline const char* PipeStateName(PipeState s) {
  switch (s) {
    case PipeState::kIdle:
      return "idle";
    case PipeState::kRequest:
      return "request";
    case PipeState::kSupply:
      return "supply";
  }
  return "?";
}

/// The executor's face toward pipes: a pipe whose state turned `Supply`
/// announces itself here (enqueue only — never a downstream call).
class ExecutorLink {
 public:
  virtual ~ExecutorLink() = default;

  /// `pipe` has staged content and is not yet queued. Must only enqueue.
  virtual void PipeReady(PipeBase* pipe) = 0;
};

/// Type-erased base of `Pipe<T>`: what the executor holds and polls.
class PipeBase {
 public:
  PipeBase(Node* producer, ExecutorLink* link)
      : producer_(producer), link_(link) {
    PIPES_CHECK(producer != nullptr && link != nullptr);
  }
  virtual ~PipeBase() = default;

  PipeBase(const PipeBase&) = delete;
  PipeBase& operator=(const PipeBase&) = delete;

  /// The node whose output this edge carries.
  Node* producer() const { return producer_; }

  PipeState state() const { return state_; }

  /// True while the pipe sits in the executor's ready queue.
  bool in_queue() const { return in_queue_; }

  /// Staged work units (elements + control signals) awaiting delivery.
  std::size_t staged_units() const { return staged_units_; }

  bool HasStaged() const { return staged_units_ > 0; }

  /// Delivers everything staged to the producer's subscribers, in staging
  /// order, and returns to `Idle`. Returns the number of units delivered.
  /// Called by the executor only; downstream operators invoked from here
  /// stage into their own pipes instead of recursing further.
  virtual std::size_t Deliver() = 0;

  /// Delivers everything staged to the subscribers owned by one of the
  /// `lane` nodes (sorted by address), in staging order, without consuming
  /// it: the staged content stays put for the other lanes. Safe to call
  /// from several threads at once for disjoint lanes. Returns the staged
  /// unit count.
  virtual std::size_t DeliverTo(std::span<Node* const> lane) const = 0;

  /// Drops what `DeliverTo` calls delivered and returns to `Idle`, off the
  /// ready queue, with the column capacity kept for the next staging.
  /// Returns the number of units dropped.
  virtual std::size_t Recycle() = 0;

  // --- Executor bookkeeping -------------------------------------------------

  /// The executor is about to poll the producer: `Idle` → `Request`.
  void MarkPolled() {
    if (state_ == PipeState::kIdle) state_ = PipeState::kRequest;
  }

  /// The producer was polled but supplied nothing: `Request` → `Idle`.
  void MarkPollDone() {
    if (state_ == PipeState::kRequest) state_ = PipeState::kIdle;
  }

  /// The executor dequeued this pipe (immediately before `Deliver`).
  void ClearInQueue() { in_queue_ = false; }

 protected:
  /// Content was staged: state turns `Supply` and the executor is notified
  /// exactly once until the pipe is dequeued again.
  void NotifyReady() {
    state_ = PipeState::kSupply;
    if (!in_queue_) {
      in_queue_ = true;
      link_->PipeReady(this);
    }
  }

  void ResetToIdle() { state_ = PipeState::kIdle; }

  std::size_t staged_units_ = 0;

 private:
  Node* producer_;
  ExecutorLink* link_;
  PipeState state_ = PipeState::kIdle;
  bool in_queue_ = false;
};

/// The typed pipe edge: owns the staged output of one `Source<T>` as an
/// ordered sequence of columnar runs interleaved with control signals.
/// Consecutive element transfers coalesce into the tail run (AoS batches
/// are transposed into columns at staging time, so delivery is always
/// columnar); heartbeats and done markers keep their position relative to
/// the element runs they arrived between.
template <typename T>
class Pipe final : public PipeBase {
 public:
  Pipe(Source<T>* source, ExecutorLink* link);

  // --- Staging (called by Source<T>'s Transfer* under an executor) ---------

  void StageElement(const StreamElement<T>& e) {
    TailRun().Append(e);
    staged_units_ += 1;
    NotifyReady();
  }

  void StageBatch(std::span<const StreamElement<T>> batch) {
    TailRun().AppendBatch(batch);
    staged_units_ += batch.size();
    NotifyReady();
  }

  void StageRun(const ColumnarRun<T>& run) {
    TailRun().AppendRun(run);
    staged_units_ += run.size();
    NotifyReady();
  }

  /// Consuming overload: when the tail entry is a fresh (pool-recycled)
  /// run, the columns are swapped in — zero copy — and the producer gets
  /// the pooled capacity back in `run` for its next output.
  void StageRun(ColumnarRun<T>&& run) {
    staged_units_ += run.size();
    TailRun().TakeFrom(run);
    NotifyReady();
  }

  void StageHeartbeat(Timestamp t) {
    PushEntry(Entry::kHeartbeat).heartbeat = t;
    staged_units_ += 1;
    NotifyReady();
  }

  void StageDone() {
    PushEntry(Entry::kDone);
    staged_units_ += 1;
    NotifyReady();
  }

  std::size_t Deliver() override;
  std::size_t DeliverTo(std::span<Node* const> lane) const override;
  std::size_t Recycle() override;

 private:
  struct Entry {
    enum Kind { kRun, kHeartbeat, kDone };
    Kind kind = kRun;
    ColumnarRun<T> run;
    Timestamp heartbeat = kMinTimestamp;
  };

  /// Runs `entries` through the producer's subscriber loops (every
  /// subscriber, or only `lane`'s).
  void DeliverEntries(const std::vector<Entry>& entries,
                      const std::span<Node* const>* lane) const;

  /// Moves `entries` into the staging pool, column capacity intact, so
  /// steady-state staging allocates nothing.
  void ReleaseToPool(std::vector<Entry>& entries);

  /// Appends a fresh entry of `kind`, recycling pooled column capacity.
  Entry& PushEntry(typename Entry::Kind kind) {
    if (!pool_.empty()) {
      entries_.push_back(std::move(pool_.back()));
      pool_.pop_back();
    } else {
      entries_.emplace_back();
    }
    Entry& e = entries_.back();
    e.kind = kind;
    return e;
  }

  /// The run entry new elements coalesce into.
  ColumnarRun<T>& TailRun() {
    if (entries_.empty() || entries_.back().kind != Entry::kRun) {
      PushEntry(Entry::kRun);
    }
    return entries_.back().run;
  }

  Source<T>* source_;
  std::vector<Entry> entries_;
  /// Delivered entries come back here with their column capacity intact, so
  /// steady-state staging allocates nothing.
  std::vector<Entry> pool_;
  /// Deliver() swaps `entries_` in here before walking it, so (pathological)
  /// re-staging during delivery cannot invalidate the walk.
  std::vector<Entry> delivering_;
};

// Member definitions live in source.h (below the Source<T> definition),
// which every translation unit that instantiates Source<T> includes.

}  // namespace pipes

#endif  // PIPES_CORE_PIPE_EDGE_H_
