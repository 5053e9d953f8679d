#ifndef PIPES_ENGINE_ENGINE_H_
#define PIPES_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/common/status.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/core/source.h"
#include "src/cql/analyzer.h"
#include "src/cql/catalog.h"
#include "src/memory/memory_manager.h"
#include "src/metadata/snapshot.h"
#include "src/optimizer/plan_manager.h"
#include "src/relational/tuple.h"
#include "src/scheduler/executor.h"
#include "src/scheduler/scheduler.h"
#include "src/scheduler/strategy.h"

/// \file
/// `pipes::engine::Engine` — the unified facade over one shared live query
/// graph (DESIGN.md §4g). Everything a long-running multi-tenant deployment
/// needs sits behind it: the graph, the CQL catalog, the multi-query plan
/// manager (shared-subplan grafting), the memory manager, and the
/// pipe-polled executor. Tenants register continuous queries (CQL text, an
/// analyzed logical plan, or a hand-built pipeline) and get back a
/// `QueryHandle` carrying cancellation, result subscription (pull or
/// callback), and a per-query metrics snapshot.
///
/// Threading: every public entry point is safe to call from any thread.
/// Three locks keep ingest, processing and result delivery overlapping:
///
/// - The *graph lock* guards the graph, catalog, plan manager and
///   executors. Registration, cancellation, pumping and snapshots take it.
/// - The *ingest lock* guards one engine-wide FIFO of pushes, heartbeats
///   and closes. `StreamWriter` appends to it without the graph lock; its
///   order and closed checks run at enqueue time, so errors stay
///   synchronous. Every entry point that reads or changes the graph first
///   moves the FIFO into the inlets, so rows pushed before a Register never
///   reach that query and snapshots count every pushed row. The FIFO holds
///   at most `kIngestBound` entries: a writer that finds it full waits for
///   a running `Pump` to take it, and drains it itself under the graph lock
///   when no pump is running (single-threaded callers never wait).
/// - Each query's *outbox lock* guards its pull-mode result queue, so
///   `QueryHandle::Poll` never waits for a pump.
///
/// Lock order is graph → ingest and graph → outbox; the ingest and outbox
/// locks are never held together.
///
/// Lanes (DESIGN.md §4g): the graph splits into *roots* (inlets and every
/// other node without upstream) and *lanes*, the weakly connected
/// components left once the roots are removed — one per independent query
/// or group of queries sharing operators. Each lane has its own
/// `PipeExecutor`. A `Pump` is one fork-join under the graph lock: the
/// calling thread drains the FIFO into the roots and polls active roots;
/// each lane then delivers the roots' staged runs to its own subscribers
/// and drains its own pipes, on the caller or on a worker of a pool the
/// engine starts at the first pump big enough to split
/// (min(lanes, hardware threads) − 1 workers); the caller recycles the
/// root runs once every lane has joined. So a lane sees its inputs in the
/// order one executor would have delivered them, and nothing outlives the
/// `Pump` call. Result callbacks run on the lane's thread while the
/// pumping thread holds the graph lock — do not call back into the engine
/// from inside one. Callbacks of *different* queries may run concurrently;
/// one query's callback never runs concurrently with itself.
///
/// Graph mutation protocol: subscriptions must not change while a
/// `PipeExecutor` is attached, so the engine suspends the executor around
/// every graft and teardown. Suspension only flushes *staged* output (the
/// executor destructor drains ready pipes without polling sources), so
/// registering or cancelling a query never quiesces the rest of the graph —
/// in-flight elements of other queries keep flowing on the next pump.

namespace pipes::engine {

class Engine;
/// Pull-mode result queue of one query (defined in engine.cc).
class ResultOutbox;

/// What to do with a registration that exceeds the memory budget or a
/// quota.
enum class AdmissionPolicy {
  kReject,  ///< Fail Register with ResourceExhausted.
  kQueue,   ///< Park it; admitted FIFO once capacity frees up.
};

struct EngineOptions {
  /// Budget handed to the engine-owned `memory::MemoryManager`; admission
  /// control rejects/queues registrations while operator state exceeds it.
  /// 0 = unlimited.
  std::size_t memory_budget_bytes = 0;
  /// Budget for the disk spill tier (docs/memory.md): spill-capable
  /// operators page state to disk until the sum of their on-disk runs
  /// reaches this; admission control rejects/queues registrations past it.
  /// 0 = unlimited.
  std::size_t disk_budget_bytes = 0;
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  /// Static admission gate: run the dataflow abstract interpretation over
  /// every plan registration (`analysis::AnalyzeDataflowPlan`) and
  /// reject/queue it when the certified peak state exceeds what remains of
  /// the RAM/disk budgets — before a single element flows. The certificate
  /// is stamped on the query's result sink as `dataflow.cert_*` gauges
  /// (visible in `QuerySnapshot`) and quoted in the ResourceExhausted
  /// message. Runtime admission (observed usage) applies either way.
  /// Pipeline registrations are never certified (no plan to analyze).
  bool certify_admission = false;
  /// Live-query quota per tenant (0 = unlimited).
  std::size_t max_queries_per_tenant = 0;
  /// Live-query quota across all tenants (0 = unlimited).
  std::size_t max_total_queries = 0;
  /// Max work units per executor poll (Aurora-style train size).
  std::size_t batch_size = 64;
  /// Multi-query subplan sharing (off = the E5 baseline instantiator).
  bool sharing = true;
};

struct RegisterOptions {
  std::string tenant = "default";
};

enum class QueryState {
  kQueued,     ///< Parked by admission control, not yet instantiated.
  kRunning,    ///< Grafted onto the live graph.
  kCancelled,  ///< Torn down (or dequeued before admission).
};

/// Per-tenant admission/usage counters, readable at any time.
struct TenantCounters {
  std::uint64_t registered = 0;  ///< Queries ever admitted to the graph.
  std::uint64_t live = 0;        ///< Currently running.
  std::uint64_t queued = 0;      ///< Currently parked by admission control.
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;
  std::uint64_t results_delivered = 0;

  friend bool operator==(const TenantCounters&,
                         const TenantCounters&) = default;
};

/// Engine-wide counters.
struct EngineStats {
  std::uint64_t total_registered = 0;
  std::uint64_t live_queries = 0;
  std::uint64_t queued_queries = 0;
  std::uint64_t cancelled_queries = 0;
  std::uint64_t rejected_queries = 0;
  std::size_t graph_nodes = 0;
  std::size_t operators_created = 0;  ///< PlanManager total.
  std::size_t operators_reused = 0;   ///< PlanManager total.
  std::size_t state_bytes = 0;        ///< Summed ApproxMemoryBytes (RAM).
  std::size_t spilled_bytes = 0;      ///< Disk tier: summed Node spill.
  std::size_t lanes = 0;  ///< Lanes of the current graph (file comment).
  /// Pump/RunToCompletion calls in which a worker ran at least one lane
  /// beside the calling thread.
  std::uint64_t parallel_pumps = 0;
};

/// An externally fed tuple source: host code pushes elements in, the graph
/// consumes them. Use through `StreamWriter` (which queues behind the
/// engine's ingest lock); calling its methods directly is only safe while
/// nothing else drives the engine.
class InletSource : public Source<relational::Tuple> {
 public:
  explicit InletSource(std::string name) : Source(std::move(name)) {}

  void PushBatch(std::span<const StreamElement<relational::Tuple>> batch) {
    TransferBatch(batch);
  }
  void Heartbeat(Timestamp t) { TransferHeartbeat(t); }
  void Close() { TransferDone(); }

  NodeDescriptor Describe() const override {
    NodeDescriptor d;
    d.kind = NodeDescriptor::Kind::kSource;
    d.op = "inlet";
    return d;
  }
};

/// Writer for one engine-owned inlet stream. Copyable; all methods append
/// to the engine's ingest FIFO (see the file comment) and report order and
/// closed errors synchronously.
class StreamWriter {
 public:
  StreamWriter() = default;

  Status Push(const StreamElement<relational::Tuple>& element);
  Status Push(relational::Tuple tuple, Timestamp t);
  Status Heartbeat(Timestamp t);
  /// Signals end-of-stream (idempotent).
  Status Close();

  explicit operator bool() const { return engine_ != nullptr; }

 private:
  friend class Engine;
  StreamWriter(Engine* engine, InletSource* inlet)
      : engine_(engine), inlet_(inlet) {}

  Engine* engine_ = nullptr;
  InletSource* inlet_ = nullptr;
};

/// The per-query face of the engine: cancel, fetch/subscribe results, and
/// snapshot metrics for exactly this query's operators. Cheap to copy; all
/// methods outlive cancellation (they report state kCancelled / empty
/// results afterwards). `Poll` takes only the query's outbox lock; the
/// others take the engine's graph lock.
class QueryHandle {
 public:
  using Element = StreamElement<relational::Tuple>;
  using Callback = std::function<void(const Element&)>;

  QueryHandle() = default;

  std::uint64_t id() const { return id_; }
  const std::string& tenant() const { return tenant_; }
  const relational::Schema& schema() const { return schema_; }

  QueryState state() const;

  /// Tears this query down: the engine's result sink detaches, then the
  /// plan manager removes the unshared suffix of the plan (operators other
  /// queries still use stay). The rest of the graph keeps flowing — cancel
  /// never quiesces it.
  Status Cancel();

  /// Drains every result accumulated since the last Poll (pull mode),
  /// without waiting for a running pump. Empty once a callback is attached
  /// and after Cancel (unpolled rows are dropped).
  std::vector<Element> Poll();

  /// Switches to push mode: `callback` fires for every result from the
  /// next pump on, on the query's lane thread while the pumping thread
  /// holds the engine lock — do not re-enter the engine. Never entered
  /// concurrently for one query. Pass nullptr to return to pull mode.
  Status OnResult(Callback callback);

  /// Total results this query has delivered (either mode).
  std::uint64_t results_delivered() const;

  /// Metrics snapshot filtered to this query's operators (shared operators
  /// included — they do work for this query too).
  Result<metadata::MetricsSnapshot> Snapshot() const;

  explicit operator bool() const { return engine_ != nullptr; }

 private:
  friend class Engine;
  QueryHandle(Engine* engine, std::uint64_t id, std::string tenant,
              relational::Schema schema, std::shared_ptr<ResultOutbox> outbox)
      : engine_(engine),
        id_(id),
        tenant_(std::move(tenant)),
        schema_(std::move(schema)),
        outbox_(std::move(outbox)) {}

  Engine* engine_ = nullptr;
  std::uint64_t id_ = 0;
  std::string tenant_;
  relational::Schema schema_;
  std::shared_ptr<ResultOutbox> outbox_;
};

/// The facade. Owns the graph, catalog, plan manager, memory manager, and
/// executor; see the file comment for the threading and mutation protocol.
class Engine {
 public:
  /// Builds one pipeline query directly against the engine's graph; must
  /// return the query's output source (already added to the graph).
  using PipelineBuilder =
      std::function<Result<Source<relational::Tuple>*>(QueryGraph&)>;
  /// Optional inverse of a PipelineBuilder: unsubscribe and Remove every
  /// node the builder added (the output's engine sink is already gone when
  /// this runs).
  using PipelineTeardown = std::function<Status(QueryGraph&)>;

  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Streams --------------------------------------------------------------

  /// Creates an engine-owned inlet stream: the catalog entry for CQL plus a
  /// writer for the host to push tuples through.
  Result<StreamWriter> AddStream(const std::string& name,
                                 relational::Schema schema,
                                 double rate_hint = 1000.0);

  /// Registers an existing source (already added to `graph()`) under
  /// `name` — for generator-driven deployments (demos, benchmarks).
  Status BindStream(const std::string& name, relational::Schema schema,
                    Source<relational::Tuple>& source,
                    double rate_hint = 1000.0);

  // --- Query registration ---------------------------------------------------

  /// Compiles `cql_text` (through `cql::Compile`) and grafts the optimized
  /// plan onto the live graph, sharing subplans with everything already
  /// running. Admission control may reject (ResourceExhausted) or queue the
  /// query depending on `EngineOptions::admission`.
  Result<QueryHandle> Register(const std::string& cql_text,
                               const RegisterOptions& options = {});

  /// Same, for an already-analyzed logical plan.
  Result<QueryHandle> Register(const optimizer::LogicalPlan& plan,
                               const RegisterOptions& options = {});

  /// Same, for a hand-built pipeline: `builder` runs under the engine's
  /// mutation protocol (executor suspended). Pipeline queries bypass the
  /// plan manager, so cancellation removes only the engine's sink unless a
  /// `teardown` is supplied to undo the builder's wiring.
  Result<QueryHandle> Register(const PipelineBuilder& builder,
                               const RegisterOptions& options = {},
                               PipelineTeardown teardown = nullptr);

  /// Cancels by id (see QueryHandle::Cancel). Queued queries are simply
  /// dequeued. NotFound for unknown ids; cancelling twice is an error.
  Status Cancel(std::uint64_t query_id);

  /// Cancels every live or queued query of `tenant` (a server connection
  /// dropping). Returns how many were cancelled.
  std::size_t CancelAllForTenant(const std::string& tenant);

  // --- Execution ------------------------------------------------------------

  /// Runs up to `max_steps` executor steps (pipe deliveries + source
  /// polls); stops early when the graph has no work. Also admits queued
  /// registrations that now fit. Returns steps actually taken.
  std::uint64_t Pump(std::uint64_t max_steps = 1024);

  /// Pumps until the graph fully drains (finite workloads: demos, tests).
  scheduler::RunStats RunToCompletion();

  /// Blocks until a writer has queued input or `timeout` passes; true when
  /// input is waiting. A pump thread calls it after a `Pump` that found no
  /// work, instead of sleeping. The timeout bounds how late queued
  /// registrations are admitted.
  bool WaitForInput(std::chrono::microseconds timeout);

  /// Most entries the ingest FIFO holds before writers wait for a pump.
  static constexpr std::size_t kIngestBound = 4096;

  /// Fewest rows staged at the roots for which a pump round hands lanes to
  /// the worker pool; smaller rounds run every lane on the calling thread
  /// (EXPERIMENTS.md, "Lanes").
  static constexpr std::size_t kParallelRows = 1024;

  // --- Observability --------------------------------------------------------

  /// Whole-graph snapshot (memory gauges included).
  metadata::MetricsSnapshot Snapshot() const;

  /// Snapshot filtered to one tenant's operators, scope-labelled with the
  /// tenant name.
  metadata::MetricsSnapshot TenantSnapshot(const std::string& tenant) const;

  /// Snapshot filtered to one query's operators.
  Result<metadata::MetricsSnapshot> QuerySnapshot(
      std::uint64_t query_id) const;

  TenantCounters tenant_counters(const std::string& tenant) const;
  std::vector<std::string> Tenants() const;
  EngineStats stats() const;

  // --- Infrastructure access (setup phase) ----------------------------------
  // Mutating the graph or catalog directly is the deprecated pre-engine
  // pattern (DESIGN.md §4g migration recipe); do it only before the first
  // Pump, or route through Register/Cancel.

  QueryGraph& graph() { return graph_; }
  const QueryGraph& graph() const { return graph_; }
  cql::Catalog& catalog() { return catalog_; }
  memory::MemoryManager& memory_manager() { return memory_; }
  const optimizer::PlanManager& plan_manager() const { return plan_manager_; }

 private:
  friend class QueryHandle;
  friend class StreamWriter;

  /// The engine-owned terminal sink of one registered query.
  class ResultSink;

  /// One engine-owned inlet and the writer-side state its pushes are
  /// checked against (the inlet itself only advances when the FIFO drains).
  struct Inlet {
    explicit Inlet(InletSource* s) : source(s) {}
    InletSource* source;  ///< Owned by the graph.
    // Guarded by ingest_mu_: the stream's state after every queued entry.
    Timestamp queued_last_start = kMinTimestamp;
    bool queued_closed = false;
    /// Guarded by mu_: this inlet's rows of the FIFO being drained.
    std::vector<StreamElement<relational::Tuple>> batch;
  };

  struct IngestEntry {
    enum class Kind : std::uint8_t { kPush, kHeartbeat, kClose };
    Inlet* inlet = nullptr;
    Kind kind = Kind::kPush;
    Timestamp heartbeat = kMinTimestamp;         ///< kHeartbeat only.
    StreamElement<relational::Tuple> element;    ///< kPush only.
  };

  struct QueryRecord {
    std::string tenant;
    QueryState state = QueryState::kQueued;
    std::uint64_t pm_id = 0;  ///< PlanManager id; 0 for pipeline queries.
    Source<relational::Tuple>* output = nullptr;
    ResultSink* sink = nullptr;  ///< Owned by the graph while running.
    /// Pull-mode results, shared with every handle; closed at cancel.
    std::shared_ptr<ResultOutbox> outbox;
    relational::Schema schema;
    optimizer::LogicalPlan plan;            ///< Kept while queued.
    std::vector<std::uint64_t> node_ids;    ///< Pipeline queries only.
    PipelineTeardown teardown;              ///< Pipeline queries only.
    std::uint64_t results_delivered = 0;    ///< Final count after teardown.
    /// Static state certificate, valid iff `has_certificate` (plan
    /// registrations under `EngineOptions::certify_admission`).
    analysis::StateCertificate certificate;
    bool has_certificate = false;
  };

  // All private helpers below assume mu_ is held.
  Result<QueryHandle> RegisterPlanLocked(const optimizer::LogicalPlan& plan,
                                         const RegisterOptions& options);
  Status AdmitLocked(std::uint64_t query_id, QueryRecord& record);
  Status CancelLocked(std::uint64_t query_id);
  void AdmitPendingLocked();
  /// Quota/budget verdict for one more query of `tenant`. OK, or the
  /// ResourceExhausted the caller rejects/queues with. A non-null
  /// `certificate` is additionally checked against the budget headroom
  /// (the static gate of `EngineOptions::certify_admission`).
  Status AdmissionCheckLocked(
      const std::string& tenant,
      const analysis::StateCertificate* certificate = nullptr) const;
  std::size_t StateBytesLocked() const;
  std::size_t SpilledBytesLocked() const;
  /// Flushes staged output through the lanes and detaches every executor.
  void SuspendExecutorLocked();
  /// Splits the graph into roots and lanes and attaches their executors.
  void EnsureExecutorLocked();
  /// Pump rounds until `max_steps` steps are taken or nothing has work.
  scheduler::RunStats RunLocked(std::uint64_t max_steps);
  /// Hands every staged root pipe, in order, to the lanes subscribing to
  /// it. Returns the rows staged.
  std::size_t FeedStagedRootsLocked();
  /// One fork-join: feeds the staged roots to their lanes, runs every lane
  /// until its pipes are drained, recycles the roots. Returns steps taken.
  std::uint64_t RunRoundLocked();
  /// Runs lane tickets [begin, end) until none is left to claim; `worker`
  /// marks the round as run on more than one thread. No lock held.
  void ClaimLanes(std::uint64_t begin, std::uint64_t end, bool worker);
  void LaneWorker();
  void StopWorkers();
  Result<std::vector<std::uint64_t>> QueryNodeIdsLocked(
      std::uint64_t query_id) const;
  static std::string OutputGaugeName(const std::string& tenant);

  /// Checks one writer call against its inlet's queued state and appends
  /// it to the FIFO. Takes ingest_mu_ (and mu_ when it must drain a full
  /// FIFO itself); called without either lock held.
  Status Ingest(InletSource* source, IngestEntry::Kind kind,
                StreamElement<relational::Tuple> element = {},
                Timestamp heartbeat = kMinTimestamp);
  /// Moves the FIFO into the inlets, one `TransferBatch` per stream between
  /// its heartbeats and closes. Every entry point that reads or changes the
  /// graph calls it first.
  void DrainIngestLocked();
  /// `DrainIngestLocked` for the const observers: queued rows already
  /// belong to the engine, so moving them in does not change what it holds.
  void DrainIngestLocked() const {
    const_cast<Engine*>(this)->DrainIngestLocked();
  }
  void FlushInletLocked(Inlet& inlet);

  /// The graph lock: graph, catalog, plan manager, executor, query records.
  mutable std::mutex mu_;
  EngineOptions options_;
  QueryGraph graph_;
  cql::Catalog catalog_;
  memory::MemoryManager memory_;
  optimizer::PlanManager plan_manager_;
  scheduler::RoundRobinStrategy strategy_;

  /// One lane: an executor over one weakly connected component of the
  /// graph without its roots. Touched by one thread at a time: the caller
  /// between rounds, the thread that claimed it during one.
  struct Lane {
    scheduler::RoundRobinStrategy strategy;
    std::unique_ptr<scheduler::PipeExecutor> executor;
    std::vector<Node*> roots;  ///< The roots it subscribes to, sorted.
    /// Steps and wall time of its last round. Parallel rounds claim the
    /// costliest lanes first, so the longest starts on the caller at once.
    std::uint64_t round_steps = 0;
    std::int64_t busy_ns = 0;

    /// Delivers what was fed and drains the lane's own pipes.
    void Run();
  };
  /// The caller's executor over the roots: it owns their pipes and polls
  /// the active ones. Null while suspended, like `lanes_`.
  std::unique_ptr<scheduler::PipeExecutor> roots_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<PipeBase*> staged_roots_;  ///< The current round's roots.
  std::uint64_t parallel_pumps_ = 0;

  /// The lane worker pool, started at the first round that splits. A round
  /// owns the lane tickets [round_begin_, round_end_); each thread claims
  /// the next one from `next_ticket_` and runs lane `ticket - begin`.
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;  ///< Guards the round bounds and `stopping_`.
  std::condition_variable round_cv_;  ///< A round was published, or stop.
  std::condition_variable done_cv_;   ///< The round's last lane finished.
  std::uint64_t round_begin_ = 0;
  std::uint64_t round_end_ = 0;
  bool stopping_ = false;
  std::atomic<std::uint64_t> next_ticket_{0};
  std::atomic<std::uint64_t> lanes_done_{0};
  std::atomic<bool> round_helped_{false};

  /// Changed under both locks, so either one suffices to read it.
  std::vector<std::unique_ptr<Inlet>> inlets_;
  /// Guarded by mu_: the FIFO being drained (capacity swaps with ingest_).
  std::vector<IngestEntry> draining_;

  /// The ingest lock. Taken after mu_ when both are held, never before.
  std::mutex ingest_mu_;
  std::vector<IngestEntry> ingest_;        ///< The FIFO, in push order.
  std::condition_variable input_cv_;       ///< Signals a non-empty FIFO.
  std::condition_variable space_cv_;       ///< Signals a drained FIFO.
  int input_waiters_ = 0;                  ///< Pumps in WaitForInput.
  int space_waiters_ = 0;                  ///< Writers waiting on space.
  /// Threads inside Pump: while one is, a writer facing a full FIFO waits
  /// for it instead of draining the FIFO itself.
  std::atomic<int> pumps_{0};

  std::map<std::uint64_t, QueryRecord> queries_;
  std::vector<std::uint64_t> pending_;  ///< Queued ids, FIFO.
  std::map<std::string, TenantCounters> tenants_;
  std::uint64_t next_query_id_ = 1;
  std::uint64_t cancelled_count_ = 0;
  std::uint64_t rejected_count_ = 0;
};

}  // namespace pipes::engine

#endif  // PIPES_ENGINE_ENGINE_H_
