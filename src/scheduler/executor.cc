#include "src/scheduler/executor.h"

#include <algorithm>
#include <utility>

#include "src/common/macros.h"
#include "src/core/metrics.h"

namespace pipes::scheduler {

PipeExecutor::PipeExecutor(std::vector<Node*> nodes, Strategy& strategy,
                           std::size_t batch_size)
    : strategy_(strategy), batch_size_(batch_size), nodes_(std::move(nodes)) {
  PIPES_CHECK(batch_size > 0);
  for (Node* node : nodes_) {
    if (node->is_active()) active_.push_back(node);
    PipeBase* pipe = node->AttachExecutor(this);
    if (pipe != nullptr) {
      pipes_.push_back(pipe);
      attached_.push_back(node);
      // A node with pre-staged state cannot exist at attach time, but a
      // defensive enqueue keeps the invariant "Supply pipes are queued".
      if (pipe->HasStaged()) PipeReady(pipe);
    }
  }
  std::sort(nodes_.begin(), nodes_.end());
}

PipeExecutor::~PipeExecutor() {
  // Deliver any leftover supply (e.g. an aborted run) so detach sees
  // drained pipes, then restore direct delivery.
  while (!ready_.empty()) Step();
  for (Node* node : attached_) {
    node->DetachExecutor();
  }
}

void PipeExecutor::PipeReady(PipeBase* pipe) { ready_.push_back(pipe); }

void PipeExecutor::TakeReady(std::vector<PipeBase*>& out) {
  out.assign(ready_.begin(), ready_.end());
  ready_.clear();
}

bool PipeExecutor::AllPipesIdle() const {
  return std::all_of(pipes_.begin(), pipes_.end(), [](const PipeBase* p) {
    return !p->HasStaged();
  });
}

bool PipeExecutor::Step() {
  if (ready_.empty()) return Poll();
  PipeBase* pipe = ready_.front();
  ready_.pop_front();
  // A fed pipe belongs to another executor: deliver to this one's nodes
  // and leave the staged content to its owner.
  const bool own =
      std::binary_search(nodes_.begin(), nodes_.end(), pipe->producer());
  if (own) pipe->ClearInQueue();
  ++deliver_nesting_;
  max_deliver_nesting_ = std::max(max_deliver_nesting_, deliver_nesting_);
  const std::int64_t t0 = profiler_ != nullptr ? obs::SteadyNowNs() : 0;
  const std::size_t units = own ? pipe->Deliver() : pipe->DeliverTo(nodes_);
  if (profiler_ != nullptr) {
    profiler_->RecordQuantum(*pipe->producer(), 1, units,
                             static_cast<std::uint64_t>(obs::SteadyNowNs() - t0));
  }
  --deliver_nesting_;
  stats_.units += units;
  ++stats_.iterations;
  return true;
}

bool PipeExecutor::Poll() {
  // Mirrors SingleThreadScheduler's candidate collection and queue
  // accounting.
  candidates_.clear();
  std::size_t total_queue = 0;
  for (Node* node : active_) {
    total_queue += node->queue_size();
    if (node->HasWork()) candidates_.push_back(node);
  }
  stats_.peak_total_queue = std::max(stats_.peak_total_queue, total_queue);
  stats_.accumulated_queue += total_queue;
  if (candidates_.empty()) return false;

  const std::size_t pick = strategy_.Select(candidates_);
  PIPES_CHECK(pick < candidates_.size());
  Node* chosen = candidates_[pick];
  // Idle → Request on the polled node's pipe (if it owns one); staging
  // flips it to Supply and enqueues it.
  PipeBase* pipe = nullptr;
  for (std::size_t i = 0; i < attached_.size(); ++i) {
    if (attached_[i] == chosen) {
      pipe = pipes_[i];
      break;
    }
  }
  if (pipe != nullptr) pipe->MarkPolled();
  const std::int64_t t0 = profiler_ != nullptr ? obs::SteadyNowNs() : 0;
  const std::size_t units = chosen->DoWork(batch_size_);
  if (profiler_ != nullptr) {
    profiler_->RecordQuantum(*chosen, candidates_.size(), units,
                             static_cast<std::uint64_t>(obs::SteadyNowNs() - t0));
  }
  stats_.units += units;
  if (pipe != nullptr) pipe->MarkPollDone();
  ++stats_.iterations;
  return true;
}

RunStats PipeExecutor::RunToCompletion(std::uint64_t max_iterations) {
  while (stats_.iterations < max_iterations) {
    if (!Step()) {
      // Either fully drained, or an external (non-scheduled) source still
      // owes input; in both cases nothing more can happen now.
      break;
    }
  }
  return stats_;
}

}  // namespace pipes::scheduler
