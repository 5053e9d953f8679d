#include "src/engine/engine.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/core/metrics.h"

namespace pipes::engine {

// --- Result delivery ----------------------------------------------------------

/// Pull-mode result queue of one query. The query's sink appends from its
/// lane's thread during a pump; `QueryHandle::Poll` drains it without the
/// graph lock. Closing drops what is queued and makes later appends no-ops.
class ResultOutbox {
 public:
  using Element = StreamElement<relational::Tuple>;

  void Append(const Element& e) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!closed_) rows_.push_back(e);
  }

  void Append(std::span<const Element> batch) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!closed_) rows_.insert(rows_.end(), batch.begin(), batch.end());
  }

  /// Materializes `run` before taking the lock, which a FETCH takes for
  /// every Poll; under it the rows are only swapped or moved in.
  void Append(const ColumnarRun<relational::Tuple>& run) {
    std::vector<Element> rows;  // Freed after the lock is released.
    run.MaterializeTo(rows);
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    if (rows_.empty()) {
      rows_.swap(rows);
    } else {
      rows_.insert(rows_.end(), std::make_move_iterator(rows.begin()),
                   std::make_move_iterator(rows.end()));
    }
  }

  std::vector<Element> Drain() {
    std::vector<Element> out;
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(rows_);
    return out;
  }

  void Close() {
    std::vector<Element> dropped;  // Freed after the lock is released.
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    dropped.swap(rows_);
  }

 private:
  std::mutex mu_;
  std::vector<Element> rows_;
  bool closed_ = false;
};

/// Terminal sink the engine wires onto every registered query's output.
/// Pull mode appends to the query's outbox; push mode forwards each
/// element to the handle's callback. Deliveries happen on the query's lane
/// inside Pump and the callback is swapped by a locked handle method, so
/// everything but the outbox is touched by one thread at a time, while the
/// graph lock is held.
class Engine::ResultSink : public Sink<relational::Tuple> {
 public:
  using Element = StreamElement<relational::Tuple>;

  ResultSink(std::string name, std::shared_ptr<ResultOutbox> outbox)
      : Sink(std::move(name)), outbox_(std::move(outbox)) {}

  std::uint64_t delivered() const { return delivered_; }

  void set_callback(QueryHandle::Callback callback) {
    callback_ = std::move(callback);
    if (callback_) {
      // Anything already queued replays through the new callback, so the
      // subscriber never misses results produced before it attached.
      for (const Element& e : outbox_->Drain()) callback_(e);
    }
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = Sink::Describe();
    d.op = "engine-result-sink";
    d.has_batch_kernel = true;
    d.has_columnar_kernel = true;
    return d;
  }

 protected:
  void PortElement(int /*port_id*/, const Element& e) override {
    ++delivered_;
    if (callback_) {
      callback_(e);
    } else {
      outbox_->Append(e);
    }
  }

  void PortBatch(int /*port_id*/,
                 std::span<const Element> batch) override {
    delivered_ += batch.size();
    if (callback_ == nullptr) {
      outbox_->Append(batch);
      return;
    }
    for (const Element& e : batch) callback_(e);
  }

  void PortRun(int /*port_id*/,
               const ColumnarRun<relational::Tuple>& run) override {
    delivered_ += run.size();
    if (callback_ == nullptr) {
      outbox_->Append(run);
      return;
    }
    std::vector<Element> scratch;
    run.MaterializeTo(scratch);
    for (const Element& e : scratch) callback_(e);
  }

 private:
  std::shared_ptr<ResultOutbox> outbox_;
  std::uint64_t delivered_ = 0;
  QueryHandle::Callback callback_;
};

// --- Engine -----------------------------------------------------------------

Engine::Engine(EngineOptions options)
    : options_(options),
      memory_(options.memory_budget_bytes,
              std::make_unique<memory::UniformStrategy>()),
      plan_manager_(&graph_, &catalog_, options.sharing) {
  if (options.disk_budget_bytes > 0) {
    memory_.set_disk_budget(options.disk_budget_bytes);
  }
}

Engine::~Engine() {
  StopWorkers();
  // Flush staged deliveries and detach before the graph goes away.
  SuspendExecutorLocked();
}

std::string Engine::OutputGaugeName(const std::string& tenant) {
  return "engine.registered_output:" + tenant;
}

namespace {

/// The engine's split of a graph (DESIGN.md §4g): the roots are the nodes
/// without upstream; every other node belongs to the lane it forms with
/// its non-root neighbours. Lanes come out in graph order of their first
/// node.
struct LaneSplit {
  std::vector<Node*> roots;
  std::vector<std::vector<Node*>> lanes;
};

LaneSplit SplitLanes(const std::vector<Node*>& nodes) {
  LaneSplit split;
  std::unordered_map<const Node*, std::size_t> index;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i]->upstream().empty()) {
      split.roots.push_back(nodes[i]);
    } else {
      index.emplace(nodes[i], i);
    }
  }
  std::vector<std::size_t> parent(nodes.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  for (const auto& [node, i] : index) {
    for (const std::vector<Node*>* edges :
         {&node->upstream(), &node->downstream()}) {
      for (const Node* other : *edges) {
        auto it = index.find(other);
        if (it != index.end()) parent[find(i)] = find(it->second);
      }
    }
  }
  std::unordered_map<std::size_t, std::size_t> lane_of;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!index.contains(nodes[i])) continue;
    auto [it, fresh] = lane_of.emplace(find(i), split.lanes.size());
    if (fresh) split.lanes.emplace_back();
    split.lanes[it->second].push_back(nodes[i]);
  }
  return split;
}

/// Worker threads a round may use besides the caller: one per further
/// lane, up to the hardware threads (EXPERIMENTS.md, "Lanes").
std::size_t MaxLaneWorkers(std::size_t lanes) {
  const std::size_t threads =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  return lanes == 0 ? 0 : std::min(lanes, threads) - 1;
}

}  // namespace

void Engine::SuspendExecutorLocked() {
  // Staged output only — nothing is polled: the lanes take the staged
  // roots, their destructors drain every ready pipe and detach, and the
  // roots are recycled and detached last. This is the whole "mutate a live
  // graph without quiescing it" protocol.
  if (roots_ == nullptr) return;
  FeedStagedRootsLocked();
  lanes_.clear();
  for (PipeBase* root : staged_roots_) root->Recycle();
  staged_roots_.clear();
  roots_.reset();
}

void Engine::EnsureExecutorLocked() {
  if (roots_ != nullptr) return;
  LaneSplit split = SplitLanes(graph_.nodes());
  roots_ = std::make_unique<scheduler::PipeExecutor>(
      std::move(split.roots), strategy_, options_.batch_size);
  const std::span<Node* const> roots = roots_->nodes();
  for (std::vector<Node*>& nodes : split.lanes) {
    auto lane = std::make_unique<Lane>();
    for (const Node* node : nodes) {
      for (Node* up : node->upstream()) {
        if (std::binary_search(roots.begin(), roots.end(), up)) {
          lane->roots.push_back(up);
        }
      }
    }
    std::sort(lane->roots.begin(), lane->roots.end());
    lane->roots.erase(std::unique(lane->roots.begin(), lane->roots.end()),
                      lane->roots.end());
    lane->executor = std::make_unique<scheduler::PipeExecutor>(
        std::move(nodes), lane->strategy, options_.batch_size);
    lanes_.push_back(std::move(lane));
  }
}

std::size_t Engine::StateBytesLocked() const {
  std::size_t total = 0;
  for (const Node* node : graph_.nodes()) total += node->ApproxMemoryBytes();
  return total;
}

std::size_t Engine::SpilledBytesLocked() const {
  std::size_t total = 0;
  for (const Node* node : graph_.nodes()) total += node->SpilledBytes();
  return total;
}

// --- Streams ----------------------------------------------------------------

Result<StreamWriter> Engine::AddStream(const std::string& name,
                                       relational::Schema schema,
                                       double rate_hint) {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  SuspendExecutorLocked();
  auto& inlet = graph_.Add<InletSource>(name);
  const Status status =
      catalog_.RegisterStream(name, std::move(schema), &inlet, rate_hint);
  if (!status.ok()) {
    PIPES_CHECK(graph_.Remove(inlet).ok());
    return status;
  }
  {
    std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
    inlets_.push_back(std::make_unique<Inlet>(&inlet));
  }
  return StreamWriter(this, &inlet);
}

Status Engine::BindStream(const std::string& name, relational::Schema schema,
                          Source<relational::Tuple>& source,
                          double rate_hint) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!graph_.Contains(source)) {
    return Status::InvalidArgument("source '" + source.name() +
                                   "' is not owned by the engine graph; add "
                                   "it through engine.graph() first");
  }
  DrainIngestLocked();
  SuspendExecutorLocked();
  return catalog_.RegisterStream(name, std::move(schema), &source, rate_hint);
}

namespace {

/// How long a writer facing a full FIFO waits for a running pump to take
/// it before draining it itself. About one pump quantum of the server.
constexpr std::chrono::milliseconds kIngestSpaceWait{5};

}  // namespace

Status Engine::Ingest(InletSource* source, IngestEntry::Kind kind,
                      StreamElement<relational::Tuple> element,
                      Timestamp heartbeat) {
  std::unique_lock<std::mutex> lock(ingest_mu_);
  auto it = std::find_if(
      inlets_.begin(), inlets_.end(),
      [&](const std::unique_ptr<Inlet>& inlet) {
        return inlet->source == source;
      });
  if (it == inlets_.end()) {
    return Status::NotFound("stream writer does not belong to this engine");
  }
  Inlet& inlet = **it;
  while (ingest_.size() >= kIngestBound) {
    if (pumps_.load() > 0) {
      ++space_waiters_;
      const bool taken = space_cv_.wait_for(lock, kIngestSpaceWait, [&] {
        return ingest_.size() < kIngestBound;
      });
      --space_waiters_;
      if (taken) break;
    }
    // No pump took it: drain it the way a pump would. Lock order is graph
    // then ingest, so the ingest lock is dropped first.
    lock.unlock();
    {
      std::lock_guard<std::mutex> graph_lock(mu_);
      DrainIngestLocked();
    }
    lock.lock();
  }
  if (kind == IngestEntry::Kind::kClose) {
    if (inlet.queued_closed) return Status::OK();  // Idempotent.
    inlet.queued_closed = true;
  } else {
    if (inlet.queued_closed) {
      return Status::FailedPrecondition("stream '" + source->name() +
                                        "' is closed");
    }
    if (kind == IngestEntry::Kind::kHeartbeat) {
      if (heartbeat <= inlet.queued_last_start) return Status::OK();
      inlet.queued_last_start = heartbeat;
    } else {
      if (element.start() < inlet.queued_last_start) {
        return Status::InvalidArgument(
            "out-of-order push into stream '" + source->name() +
            "': " + std::to_string(element.start()) + " < " +
            std::to_string(inlet.queued_last_start));
      }
      inlet.queued_last_start = element.start();
    }
  }
  ingest_.push_back({&inlet, kind, heartbeat, std::move(element)});
  if (input_waiters_ > 0) input_cv_.notify_one();
  return Status::OK();
}

void Engine::FlushInletLocked(Inlet& inlet) {
  if (inlet.batch.empty()) return;
  inlet.source->PushBatch(inlet.batch);
  inlet.batch.clear();
}

void Engine::DrainIngestLocked() {
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    if (ingest_.empty()) return;
    draining_.swap(ingest_);
    if (space_waiters_ > 0) space_cv_.notify_all();
  }
  // Staging into the inlets' pipes keeps delivery in the executor's hands;
  // a suspension right after (Register, Cancel) flushes the rows through
  // the graph before it changes.
  EnsureExecutorLocked();
  for (IngestEntry& entry : draining_) {
    Inlet& inlet = *entry.inlet;
    switch (entry.kind) {
      case IngestEntry::Kind::kPush:
        inlet.batch.push_back(std::move(entry.element));
        break;
      case IngestEntry::Kind::kHeartbeat:
        FlushInletLocked(inlet);
        inlet.source->Heartbeat(entry.heartbeat);
        break;
      case IngestEntry::Kind::kClose:
        FlushInletLocked(inlet);
        inlet.source->Close();
        break;
    }
  }
  draining_.clear();
  for (const std::unique_ptr<Inlet>& inlet : inlets_) FlushInletLocked(*inlet);
}

Status StreamWriter::Push(const StreamElement<relational::Tuple>& element) {
  if (engine_ == nullptr) return Status::FailedPrecondition("empty writer");
  return engine_->Ingest(inlet_, Engine::IngestEntry::Kind::kPush, element);
}

Status StreamWriter::Push(relational::Tuple tuple, Timestamp t) {
  if (engine_ == nullptr) return Status::FailedPrecondition("empty writer");
  return engine_->Ingest(
      inlet_, Engine::IngestEntry::Kind::kPush,
      StreamElement<relational::Tuple>::Point(std::move(tuple), t));
}

Status StreamWriter::Heartbeat(Timestamp t) {
  if (engine_ == nullptr) return Status::FailedPrecondition("empty writer");
  return engine_->Ingest(inlet_, Engine::IngestEntry::Kind::kHeartbeat, {},
                         t);
}

Status StreamWriter::Close() {
  if (engine_ == nullptr) return Status::FailedPrecondition("empty writer");
  return engine_->Ingest(inlet_, Engine::IngestEntry::Kind::kClose);
}

// --- Registration -----------------------------------------------------------

namespace {

std::string CertifiedBytes(std::uint64_t bytes) {
  return bytes == analysis::NodeStateBound::kUnknownBytes
             ? std::string("unbounded")
             : std::to_string(bytes);
}

}  // namespace

Status Engine::AdmissionCheckLocked(
    const std::string& tenant,
    const analysis::StateCertificate* certificate) const {
  std::uint64_t live_total = 0;
  for (const auto& [unused, counters] : tenants_) live_total += counters.live;
  if (options_.max_total_queries > 0 &&
      live_total >= options_.max_total_queries) {
    return Status::ResourceExhausted(
        "engine query quota (" + std::to_string(options_.max_total_queries) +
        ") exhausted");
  }
  auto it = tenants_.find(tenant);
  if (options_.max_queries_per_tenant > 0 && it != tenants_.end() &&
      it->second.live >= options_.max_queries_per_tenant) {
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' query quota (" +
        std::to_string(options_.max_queries_per_tenant) + ") exhausted");
  }
  if (options_.memory_budget_bytes > 0) {
    const std::size_t used =
        std::max(StateBytesLocked(), memory_.TotalUsage());
    if (used >= options_.memory_budget_bytes) {
      return Status::ResourceExhausted(
          "memory budget exceeded (" + std::to_string(used) + " of " +
          std::to_string(options_.memory_budget_bytes) + " bytes in use)");
    }
  }
  if (options_.disk_budget_bytes > 0) {
    const std::size_t spilled =
        std::max(SpilledBytesLocked(), memory_.TotalDiskUsage());
    if (spilled >= options_.disk_budget_bytes) {
      return Status::ResourceExhausted(
          "disk budget exceeded (" + std::to_string(spilled) + " of " +
          std::to_string(options_.disk_budget_bytes) +
          " bytes spilled)");
    }
  }
  if (certificate != nullptr) {
    // The static gate: the plan's certified peak state must fit into the
    // budget headroom left by everything already running. Unbounded
    // certificates never fit a finite budget.
    if (options_.memory_budget_bytes > 0) {
      const std::size_t used =
          std::max(StateBytesLocked(), memory_.TotalUsage());
      const std::uint64_t headroom = options_.memory_budget_bytes - used;
      if (!certificate->ram_bounded() ||
          certificate->ram_bytes > headroom) {
        return Status::ResourceExhausted(
            "state certificate exceeds remaining memory budget: certified "
            "ram=" +
            CertifiedBytes(certificate->ram_bytes) +
            " disk=" + CertifiedBytes(certificate->disk_bytes) + " bytes, " +
            std::to_string(headroom) + " of " +
            std::to_string(options_.memory_budget_bytes) + " bytes free");
      }
    }
    if (options_.disk_budget_bytes > 0) {
      const std::size_t spilled =
          std::max(SpilledBytesLocked(), memory_.TotalDiskUsage());
      const std::uint64_t headroom = options_.disk_budget_bytes - spilled;
      if (!certificate->disk_bounded() ||
          certificate->disk_bytes > headroom) {
        return Status::ResourceExhausted(
            "state certificate exceeds remaining disk budget: certified "
            "ram=" +
            CertifiedBytes(certificate->ram_bytes) +
            " disk=" + CertifiedBytes(certificate->disk_bytes) + " bytes, " +
            std::to_string(headroom) + " of " +
            std::to_string(options_.disk_budget_bytes) + " bytes free");
      }
    }
  }
  return Status::OK();
}

Status Engine::AdmitLocked(std::uint64_t query_id, QueryRecord& record) {
  SuspendExecutorLocked();
  PIPES_ASSIGN_OR_RETURN(optimizer::PlanManager::InstalledQuery installed,
                         plan_manager_.InstallPlan(record.plan));
  auto& sink = graph_.Add<ResultSink>(
      "q" + std::to_string(query_id) + "-results", record.outbox);
  if (record.has_certificate) {
    // Stamp the static certificate on the query's own sink so it rides
    // along in QuerySnapshot (the snapshot capture lifts "dataflow."
    // gauges into NodeSnapshot::gauges). -1 encodes unbounded.
    const auto bytes_gauge = [](std::uint64_t v) {
      return v == analysis::NodeStateBound::kUnknownBytes
                 ? -1.0
                 : static_cast<double>(v);
    };
    sink.metadata().SetGauge("dataflow.cert_ram_bytes",
                             bytes_gauge(record.certificate.ram_bytes));
    sink.metadata().SetGauge("dataflow.cert_disk_bytes",
                             bytes_gauge(record.certificate.disk_bytes));
    sink.metadata().SetGauge("dataflow.cert_progress_ok",
                             record.certificate.progress_ok ? 1.0 : 0.0);
    sink.metadata().SetGauge(
        "dataflow.cert_disorder_bound",
        record.certificate.disorder_bound ==
                NodeDescriptor::Dataflow::kUnknownTime
            ? -1.0
            : static_cast<double>(record.certificate.disorder_bound));
  }
  installed.output->AddSubscriber(sink.input());
  installed.output->metadata().SetGauge(OutputGaugeName(record.tenant),
                                        static_cast<double>(query_id));
  record.pm_id = installed.query_id;
  record.output = installed.output;
  record.sink = &sink;
  record.schema = installed.schema;
  record.plan = nullptr;  // The physical graph is the plan now.
  record.state = QueryState::kRunning;
  TenantCounters& counters = tenants_[record.tenant];
  ++counters.registered;
  ++counters.live;
  return Status::OK();
}

Result<QueryHandle> Engine::RegisterPlanLocked(
    const optimizer::LogicalPlan& plan, const RegisterOptions& options) {
  analysis::StateCertificate certificate;
  bool has_certificate = false;
  if (options_.certify_admission) {
    // The abstract interpretation runs over a scratch materialization of
    // the plan (the engine graph is untouched), seeded from the catalog's
    // per-stream rate hints.
    Result<analysis::DataflowResult> analyzed =
        analysis::AnalyzeDataflowPlan(plan, &catalog_);
    if (!analyzed.ok()) return analyzed.status();
    certificate = analyzed->certificate;
    has_certificate = true;
  }
  const Status admission = AdmissionCheckLocked(
      options.tenant, has_certificate ? &certificate : nullptr);
  if (!admission.ok()) {
    if (options_.admission == AdmissionPolicy::kReject) {
      ++rejected_count_;
      ++tenants_[options.tenant].rejected;
      return admission;
    }
    const std::uint64_t id = next_query_id_++;
    QueryRecord& record = queries_[id];
    record.tenant = options.tenant;
    record.state = QueryState::kQueued;
    record.plan = plan;
    record.schema = plan->schema;
    record.certificate = certificate;
    record.has_certificate = has_certificate;
    record.outbox = std::make_shared<ResultOutbox>();
    pending_.push_back(id);
    ++tenants_[options.tenant].queued;
    return QueryHandle(this, id, options.tenant, plan->schema, record.outbox);
  }
  const std::uint64_t id = next_query_id_++;
  QueryRecord record;
  record.tenant = options.tenant;
  record.plan = plan;
  record.certificate = certificate;
  record.has_certificate = has_certificate;
  record.outbox = std::make_shared<ResultOutbox>();
  const Status status = AdmitLocked(id, record);
  if (!status.ok()) return status;
  QueryRecord& stored = queries_[id] = std::move(record);
  return QueryHandle(this, id, options.tenant, stored.schema, stored.outbox);
}

Result<QueryHandle> Engine::Register(const std::string& cql_text,
                                     const RegisterOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  PIPES_ASSIGN_OR_RETURN(cql::CompiledQuery compiled,
                         cql::Compile(cql_text, catalog_));
  return RegisterPlanLocked(compiled.plan, options);
}

Result<QueryHandle> Engine::Register(const optimizer::LogicalPlan& plan,
                                     const RegisterOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  DrainIngestLocked();
  return RegisterPlanLocked(plan, options);
}

Result<QueryHandle> Engine::Register(const PipelineBuilder& builder,
                                     const RegisterOptions& options,
                                     PipelineTeardown teardown) {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  // Pipeline registrations cannot be replayed later, so admission failures
  // always reject (the queue only holds plans).
  PIPES_RETURN_IF_ERROR([&] {
    const Status admission = AdmissionCheckLocked(options.tenant);
    if (!admission.ok()) {
      ++rejected_count_;
      ++tenants_[options.tenant].rejected;
    }
    return admission;
  }());
  SuspendExecutorLocked();

  std::set<std::uint64_t> before;
  for (const Node* node : graph_.nodes()) before.insert(node->id());
  PIPES_ASSIGN_OR_RETURN(Source<relational::Tuple>* output, builder(graph_));
  if (output == nullptr || !graph_.Contains(*output)) {
    return Status::InvalidArgument(
        "pipeline builder must return an output source owned by the engine "
        "graph");
  }

  const std::uint64_t id = next_query_id_++;
  QueryRecord& record = queries_[id];
  record.tenant = options.tenant;
  record.state = QueryState::kRunning;
  record.output = output;
  record.teardown = std::move(teardown);
  record.outbox = std::make_shared<ResultOutbox>();
  for (const Node* node : graph_.nodes()) {
    if (before.find(node->id()) == before.end()) {
      record.node_ids.push_back(node->id());
    }
  }

  auto& sink = graph_.Add<ResultSink>("q" + std::to_string(id) + "-results",
                                      record.outbox);
  output->AddSubscriber(sink.input());
  output->metadata().SetGauge(OutputGaugeName(options.tenant),
                              static_cast<double>(id));
  record.sink = &sink;
  record.node_ids.push_back(sink.id());

  TenantCounters& counters = tenants_[options.tenant];
  ++counters.registered;
  ++counters.live;
  return QueryHandle(this, id, options.tenant, record.schema, record.outbox);
}

// --- Cancellation -----------------------------------------------------------

Status Engine::CancelLocked(std::uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(query_id) +
                            " is not registered");
  }
  QueryRecord& record = it->second;
  if (record.state == QueryState::kCancelled) {
    return Status::FailedPrecondition("query " + std::to_string(query_id) +
                                      " is already cancelled");
  }
  TenantCounters& counters = tenants_[record.tenant];
  record.outbox->Close();
  if (record.state == QueryState::kQueued) {
    pending_.erase(std::remove(pending_.begin(), pending_.end(), query_id),
                   pending_.end());
    record.plan = nullptr;
    record.state = QueryState::kCancelled;
    --counters.queued;
    ++counters.cancelled;
    ++cancelled_count_;
    return Status::OK();
  }

  SuspendExecutorLocked();
  record.output->metadata().Remove(OutputGaugeName(record.tenant));
  record.results_delivered = record.sink->delivered();
  counters.results_delivered += record.sink->delivered();
  PIPES_RETURN_IF_ERROR(record.output->UnsubscribeFrom(record.sink->input()));
  PIPES_RETURN_IF_ERROR(graph_.Remove(*record.sink));
  record.sink = nullptr;

  Status teardown_status = Status::OK();
  if (record.pm_id != 0) {
    // Drops the plan's reference counts and physically removes the suffix
    // no other query shares; shared prefixes stay live and keep flowing.
    teardown_status = plan_manager_.UninstallQuery(record.pm_id);
  } else if (record.teardown != nullptr) {
    teardown_status = record.teardown(graph_);
  }
  record.output = nullptr;
  record.state = QueryState::kCancelled;
  --counters.live;
  ++counters.cancelled;
  ++cancelled_count_;
  AdmitPendingLocked();
  return teardown_status;
}

Status Engine::Cancel(std::uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  return CancelLocked(query_id);
}

std::size_t Engine::CancelAllForTenant(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  std::vector<std::uint64_t> ids;
  for (const auto& [id, record] : queries_) {
    if (record.tenant == tenant && record.state != QueryState::kCancelled) {
      ids.push_back(id);
    }
  }
  std::size_t cancelled = 0;
  for (const std::uint64_t id : ids) {
    if (CancelLocked(id).ok()) ++cancelled;
  }
  return cancelled;
}

void Engine::AdmitPendingLocked() {
  while (!pending_.empty()) {
    const std::uint64_t id = pending_.front();
    auto it = queries_.find(id);
    PIPES_CHECK(it != queries_.end());
    QueryRecord& record = it->second;
    if (!AdmissionCheckLocked(record.tenant, record.has_certificate
                                                 ? &record.certificate
                                                 : nullptr)
             .ok()) {
      return;
    }
    pending_.erase(pending_.begin());
    --tenants_[record.tenant].queued;
    const Status status = AdmitLocked(id, record);
    if (!status.ok()) {
      // The plan stopped being installable (e.g. its stream was rebound);
      // surface that as a cancelled query rather than wedging the queue.
      record.outbox->Close();
      record.plan = nullptr;
      record.state = QueryState::kCancelled;
      ++tenants_[record.tenant].cancelled;
      ++cancelled_count_;
    }
  }
}

// --- Execution --------------------------------------------------------------

std::uint64_t Engine::Pump(std::uint64_t max_steps) {
  ++pumps_;
  std::uint64_t steps = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Queued input goes in before queued registrations are admitted, as it
    // was pushed before they could run.
    DrainIngestLocked();
    AdmitPendingLocked();
    steps = RunLocked(max_steps).iterations;
  }
  --pumps_;
  return steps;
}

scheduler::RunStats Engine::RunToCompletion() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  AdmitPendingLocked();
  return RunLocked(std::uint64_t{1} << 62);
}

scheduler::RunStats Engine::RunLocked(std::uint64_t max_steps) {
  EnsureExecutorLocked();
  const auto total = [&] {
    scheduler::RunStats sum = roots_->stats();
    for (const std::unique_ptr<Lane>& lane : lanes_) {
      const scheduler::RunStats& s = lane->executor->stats();
      sum.units += s.units;
      sum.peak_total_queue = std::max(sum.peak_total_queue, s.peak_total_queue);
      sum.accumulated_queue += s.accumulated_queue;
    }
    return sum;
  };
  const scheduler::RunStats before = total();
  round_helped_.store(false, std::memory_order_relaxed);
  std::uint64_t steps = 0;
  while (steps < max_steps) {
    // Rounds leave every lane drained, so a root is polled only when no
    // pipe anywhere is ready — exactly when one executor would poll.
    const std::uint64_t round = RunRoundLocked();
    if (round > 0) {
      steps += round;
    } else if (roots_->Poll()) {
      ++steps;
    } else {
      break;
    }
  }
  if (round_helped_.load(std::memory_order_relaxed)) ++parallel_pumps_;
  scheduler::RunStats stats = total();
  stats.iterations = steps;
  stats.units -= before.units;
  stats.accumulated_queue -= before.accumulated_queue;
  return stats;
}

std::size_t Engine::FeedStagedRootsLocked() {
  roots_->TakeReady(staged_roots_);
  std::size_t rows = 0;
  for (PipeBase* root : staged_roots_) {
    rows += root->staged_units();
    for (const std::unique_ptr<Lane>& lane : lanes_) {
      if (std::binary_search(lane->roots.begin(), lane->roots.end(),
                             root->producer())) {
        lane->executor->Feed(root);
      }
    }
  }
  return rows;
}

void Engine::Lane::Run() {
  const std::int64_t start = obs::SteadyNowNs();
  round_steps = 0;
  while (executor->Step()) ++round_steps;
  busy_ns = obs::SteadyNowNs() - start;
}

std::uint64_t Engine::RunRoundLocked() {
  const std::size_t rows = FeedStagedRootsLocked();
  const std::size_t workers =
      rows >= kParallelRows ? MaxLaneWorkers(lanes_.size()) : 0;
  if (workers == 0) {
    for (const std::unique_ptr<Lane>& lane : lanes_) lane->Run();
  } else {
    while (workers_.size() < workers) {
      workers_.emplace_back([this] { LaneWorker(); });
    }
    std::stable_sort(lanes_.begin(), lanes_.end(),
                     [](const std::unique_ptr<Lane>& a,
                        const std::unique_ptr<Lane>& b) {
                       return a->busy_ns > b->busy_ns;
                     });
    std::uint64_t begin;
    std::uint64_t end;
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      // Every earlier ticket is claimed, so the round starts at the next.
      begin = round_begin_ = next_ticket_.load(std::memory_order_relaxed);
      end = round_end_ = begin + lanes_.size();
      lanes_done_.store(0, std::memory_order_relaxed);
    }
    round_cv_.notify_all();
    ClaimLanes(begin, end, /*worker=*/false);
    if (lanes_done_.load(std::memory_order_acquire) < end - begin) {
      std::unique_lock<std::mutex> lock(pool_mu_);
      done_cv_.wait(lock, [&] {
        return lanes_done_.load(std::memory_order_acquire) == end - begin;
      });
    }
  }
  std::uint64_t steps = staged_roots_.size();
  for (const std::unique_ptr<Lane>& lane : lanes_) steps += lane->round_steps;
  for (PipeBase* root : staged_roots_) root->Recycle();
  staged_roots_.clear();
  return steps;
}

void Engine::ClaimLanes(std::uint64_t begin, std::uint64_t end, bool worker) {
  std::uint64_t ticket = next_ticket_.load(std::memory_order_relaxed);
  // A ticket at or past `end` belongs to a later round (or none): a worker
  // that woke late must not take it, so claims never overshoot `end`.
  while (ticket < end) {
    if (!next_ticket_.compare_exchange_weak(ticket, ticket + 1,
                                            std::memory_order_acq_rel)) {
      continue;
    }
    lanes_[ticket - begin]->Run();
    if (worker) round_helped_.store(true, std::memory_order_relaxed);
    if (lanes_done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        end - begin) {
      std::lock_guard<std::mutex> lock(pool_mu_);
      done_cv_.notify_one();
    }
    ticket = next_ticket_.load(std::memory_order_relaxed);
  }
}

void Engine::LaneWorker() {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t begin;
    std::uint64_t end;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      round_cv_.wait(lock, [&] { return stopping_ || round_end_ != seen; });
      if (stopping_) return;
      begin = round_begin_;
      end = seen = round_end_;
    }
    ClaimLanes(begin, end, /*worker=*/true);
  }
}

void Engine::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    stopping_ = true;
  }
  round_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

bool Engine::WaitForInput(std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(ingest_mu_);
  ++input_waiters_;
  const bool ready =
      input_cv_.wait_for(lock, timeout, [&] { return !ingest_.empty(); });
  --input_waiters_;
  return ready;
}

// --- Observability ----------------------------------------------------------

metadata::MetricsSnapshot Engine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  metadata::CaptureOptions options;
  options.memory_manager = &memory_;
  return metadata::CaptureSnapshot(graph_, options);
}

Result<std::vector<std::uint64_t>> Engine::QueryNodeIdsLocked(
    std::uint64_t query_id) const {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(query_id) +
                            " is not registered");
  }
  const QueryRecord& record = it->second;
  if (record.state != QueryState::kRunning) {
    return Status::FailedPrecondition("query " + std::to_string(query_id) +
                                      " is not running");
  }
  std::vector<std::uint64_t> ids;
  if (record.pm_id != 0) {
    PIPES_ASSIGN_OR_RETURN(std::vector<const Node*> nodes,
                           plan_manager_.QueryNodes(record.pm_id));
    for (const Node* node : nodes) ids.push_back(node->id());
    ids.push_back(record.output->id());
    ids.push_back(record.sink->id());
  } else {
    ids = record.node_ids;
  }
  return ids;
}

metadata::MetricsSnapshot Engine::TenantSnapshot(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  metadata::SnapshotOptions options;
  options.scope = tenant;
  for (const auto& [id, record] : queries_) {
    if (record.tenant != tenant || record.state != QueryState::kRunning) {
      continue;
    }
    const auto ids = QueryNodeIdsLocked(id);
    if (!ids.ok()) continue;
    options.node_filter.insert(options.node_filter.end(), ids->begin(),
                               ids->end());
  }
  // A tenant with no running queries sees an empty view, not the whole
  // graph (an empty filter means "keep everything" to the exporters).
  if (options.node_filter.empty()) {
    options.node_filter.push_back(0);  // id 0 is never assigned
  }
  metadata::CaptureOptions capture;
  capture.memory_manager = &memory_;
  return metadata::FilterSnapshot(metadata::CaptureSnapshot(graph_, capture),
                                  options);
}

Result<metadata::MetricsSnapshot> Engine::QuerySnapshot(
    std::uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  PIPES_ASSIGN_OR_RETURN(std::vector<std::uint64_t> ids,
                         QueryNodeIdsLocked(query_id));
  metadata::SnapshotOptions options;
  options.node_filter = std::move(ids);
  options.scope = "query-" + std::to_string(query_id);
  metadata::CaptureOptions capture;
  capture.memory_manager = &memory_;
  return metadata::FilterSnapshot(metadata::CaptureSnapshot(graph_, capture),
                                  options);
}

TenantCounters Engine::tenant_counters(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return TenantCounters{};
  TenantCounters counters = it->second;
  // Fold in the live sinks' running totals (the per-record counter is only
  // finalized at cancel).
  for (const auto& [unused, record] : queries_) {
    if (record.tenant == tenant && record.state == QueryState::kRunning) {
      counters.results_delivered += record.sink->delivered();
    }
  }
  return counters;
}

std::vector<std::string> Engine::Tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, unused] : tenants_) names.push_back(name);
  return names;
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  EngineStats stats;
  for (const auto& [unused, counters] : tenants_) {
    stats.total_registered += counters.registered;
    stats.live_queries += counters.live;
    stats.queued_queries += counters.queued;
  }
  stats.cancelled_queries = cancelled_count_;
  stats.rejected_queries = rejected_count_;
  stats.graph_nodes = graph_.size();
  stats.operators_created = plan_manager_.total_operators_created();
  stats.operators_reused = plan_manager_.total_operators_reused();
  stats.state_bytes = StateBytesLocked();
  stats.spilled_bytes = std::max(SpilledBytesLocked(), memory_.TotalDiskUsage());
  stats.lanes = lanes_.size();
  if (roots_ == nullptr) stats.lanes = SplitLanes(graph_.nodes()).lanes.size();
  stats.parallel_pumps = parallel_pumps_;
  return stats;
}

// --- QueryHandle ------------------------------------------------------------

QueryState QueryHandle::state() const {
  if (engine_ == nullptr) return QueryState::kCancelled;
  std::lock_guard<std::mutex> lock(engine_->mu_);
  auto it = engine_->queries_.find(id_);
  if (it == engine_->queries_.end()) return QueryState::kCancelled;
  return it->second.state;
}

Status QueryHandle::Cancel() {
  if (engine_ == nullptr) return Status::FailedPrecondition("empty handle");
  return engine_->Cancel(id_);
}

std::vector<QueryHandle::Element> QueryHandle::Poll() {
  if (outbox_ == nullptr) return {};
  return outbox_->Drain();
}

Status QueryHandle::OnResult(Callback callback) {
  if (engine_ == nullptr) return Status::FailedPrecondition("empty handle");
  std::lock_guard<std::mutex> lock(engine_->mu_);
  auto it = engine_->queries_.find(id_);
  if (it == engine_->queries_.end() ||
      it->second.state != QueryState::kRunning) {
    return Status::FailedPrecondition("query " + std::to_string(id_) +
                                      " is not running");
  }
  it->second.sink->set_callback(std::move(callback));
  return Status::OK();
}

std::uint64_t QueryHandle::results_delivered() const {
  if (engine_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(engine_->mu_);
  auto it = engine_->queries_.find(id_);
  if (it == engine_->queries_.end()) return 0;
  const Engine::QueryRecord& record = it->second;
  return record.state == QueryState::kRunning ? record.sink->delivered()
                                              : record.results_delivered;
}

Result<metadata::MetricsSnapshot> QueryHandle::Snapshot() const {
  if (engine_ == nullptr) return Status::FailedPrecondition("empty handle");
  return engine_->QuerySnapshot(id_);
}

}  // namespace pipes::engine
