#include "src/testing/materialize.h"

#include <cstdint>
#include <optional>
#include <utility>

#include "src/algebra/aggregate.h"
#include "src/algebra/aggregates.h"
#include "src/algebra/difference.h"
#include "src/algebra/distinct.h"
#include "src/algebra/filter.h"
#include "src/algebra/intersect.h"
#include "src/algebra/join.h"
#include "src/algebra/map.h"
#include "src/algebra/parallel.h"
#include "src/algebra/relation_to_stream.h"
#include "src/algebra/reorder.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/common/random.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/pipe.h"

namespace pipes::testing {

namespace {

using algebra::CountWindow;
using algebra::Difference;
using algebra::Distinct;
using algebra::DStream;
using algebra::Filter;
using algebra::GroupedAggregate;
using algebra::Intersect;
using algebra::IStream;
using algebra::MakeHashJoin;
using algebra::MakeSpillableHashJoin;
using algebra::MakeKeyedParallel;
using algebra::MakeParallelHashJoin;
using algebra::Map;
using algebra::PartitionedWindow;
using algebra::ReorderingSource;
using algebra::SlideWindow;
using algebra::SumAgg;
using algebra::TemporalAggregate;
using algebra::TimeWindow;
using algebra::UnboundedWindow;
using algebra::Union;

// --- Canonical scalar functions as copyable functors ------------------------
// MakeKeyedParallel constructs each replica from a copy of the arguments, so
// these must be plain value types (no std::function indirection).

struct PredFn {
  SpecNode n;
  bool operator()(Val x) const { return PredEval(n, x); }
};

struct MapFn {
  SpecNode n;
  Val operator()(Val x) const { return MapEval(n, x); }
};

struct GroupKeyFn {
  Val groups;
  Val operator()(Val x) const { return GroupKey(x, groups); }
};

struct JoinKeyFn {
  Val modulus;
  Val operator()(Val x) const { return JoinKey(x, modulus); }
};

struct CombineFn {
  Val operator()(Val l, Val r) const { return JoinCombine(l, r); }
};

struct IdentityKeyFn {
  Val operator()(Val x) const { return x; }
};

struct ToU64Fn {
  std::uint64_t operator()(Val x) const {
    return static_cast<std::uint64_t>(x);
  }
};

struct EncodeSumFn {
  Val operator()(std::uint64_t sum) const { return BoundSum(sum); }
};

struct EncodeGroupFn {
  Val operator()(const std::pair<Val, std::uint64_t>& p) const {
    return EncodeGroup(p.first, p.second);
  }
};

using GroupSumOp = GroupedAggregate<Val, SumAgg<std::uint64_t>, GroupKeyFn,
                                    ToU64Fn>;
using SumOp = TemporalAggregate<Val, SumAgg<std::uint64_t>, ToU64Fn>;

// --- Canary -----------------------------------------------------------------

/// Identity pipe with a deliberate, deterministic bug. Sits between the
/// plan root and the oracle sink; the self-check asserts every kind is
/// caught by some oracle.
class CanaryPipe : public UnaryPipe<Val, Val> {
 public:
  explicit CanaryPipe(CanaryKind kind)
      : UnaryPipe<Val, Val>(std::string("canary-") + CanaryKindName(kind)),
        kind_(kind) {}

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<Val, Val>::Describe();
    d.op = "canary";
    return d;
  }

 protected:
  void PortElement(int /*port_id*/, const Elem& e) override {
    ++n_;
    switch (kind_) {
      case CanaryKind::kDropElement:
        if (n_ % 17 == 0) return;
        break;
      case CanaryKind::kDuplicateElement:
        if (n_ % 13 == 0) this->Transfer(e);
        break;
      case CanaryKind::kCorruptPayload:
        if (n_ % 19 == 0) {
          this->Transfer(Elem(e.payload + 1, e.interval));
          return;
        }
        break;
      case CanaryKind::kWidenInterval:
        if (n_ % 11 == 0 && e.end() != kMaxTimestamp) {
          this->Transfer(Elem(e.payload, TimeInterval(e.start(), e.end() + 5)));
          return;
        }
        break;
      case CanaryKind::kStaleReplay:
        if (n_ % 31 == 0 && stale_.has_value()) {
          this->Transfer(Elem(*stale_, TimeInterval(e.start(), e.start() + 1)));
        }
        stale_ = e.payload;
        break;
      case CanaryKind::kHeartbeatOvershoot:
      case CanaryKind::kNone:
        break;
    }
    this->Transfer(e);
  }

  void PortProgress(int port_id, Timestamp watermark) override {
    if (kind_ == CanaryKind::kHeartbeatOvershoot) {
      // Falsely promise that the next 7 ticks are element-free (saturating:
      // the final watermark is already kMaxTimestamp).
      this->TransferHeartbeat(watermark > kMaxTimestamp - 7 ? kMaxTimestamp
                                                            : watermark + 7);
      return;
    }
    UnaryPipe<Val, Val>::PortProgress(port_id, watermark);
  }

 private:
  CanaryKind kind_;
  std::uint64_t n_ = 0;
  std::optional<Val> stale_;
};

/// Registers every node of a replicated stage with the oracle layer:
/// partition/merge are exact relays, the decoupling buffers obey the
/// buffer conservation law, and each replica obeys its operator's own rule
/// (and its Describe() card is cross-checked against the catalog).
void RegisterChain(struct Builder& b, const algebra::ParallelTopology& t,
                   OpKind kind);

ConservationRule RuleFor(OpKind kind) {
  switch (kind) {
    case OpKind::kMap:
    case OpKind::kTimeWindow:
    case OpKind::kUnboundedWindow:
    case OpKind::kCountWindow:
    case OpKind::kPartitionedWindow:
    case OpKind::kUnion:
    case OpKind::kIStream:
      return ConservationRule::kExact;
    case OpKind::kFilter:
    case OpKind::kSlideWindow:  // drops degenerate (first >= last) windows
    case OpKind::kDistinct:
    case OpKind::kDStream:  // skips never-expiring elements
      return ConservationRule::kAtMostIn;
    case OpKind::kSum:
    case OpKind::kGroupSum:
      return ConservationRule::kAtMostDoubleIn;
    case OpKind::kSource:
    case OpKind::kHashJoin:
    case OpKind::kDifference:
    case OpKind::kIntersect:
      return ConservationRule::kNone;
  }
  return ConservationRule::kNone;
}

/// Builder state threaded through the per-node switch.
struct Builder {
  const PlanSpec& spec;
  const MaterializeOptions& options;
  Materialized& out;
  Random buffer_rng;
  int buffer_index = 0;

  explicit Builder(const PlanSpec& s, const MaterializeOptions& o,
                   Materialized& m)
      : spec(s), options(o), out(m), buffer_rng(o.buffer_seed) {}

  void AddHandle(int spec_index, OpKind kind, bool check_descriptor,
                 ConservationRule rule, const Node* node) {
    OpHandle h;
    h.spec_index = spec_index;
    h.kind = kind;
    h.check_descriptor = check_descriptor;
    h.rule = rule;
    h.node = node;
    out.ops.push_back(h);
    if (check_descriptor) {
      std::optional<std::string> mismatch =
          CheckDescriptor(kind, node->Describe(), node->name());
      if (mismatch.has_value()) {
        out.build_failures.push_back(Failure{"descriptor", *mismatch});
      }
    }
  }

  /// Optionally interposes a seeded buffer behind `src`. Buffers are never
  /// placed directly under source-attached (order-sensitive count) windows'
  /// parents — they preserve FIFO order, so that would be safe too, but
  /// the spec keeps those edges direct so the source-attachment invariant
  /// stays visible in the physical graph.
  Source<Val>* MaybeBuffer(Source<Val>* src) {
    if (options.buffer_prob <= 0.0 ||
        !buffer_rng.Bernoulli(options.buffer_prob)) {
      return src;
    }
    auto& buf = out.graph.Add<Buffer<Val>>(
        "fuzz-buffer-" + std::to_string(buffer_index++),
        options.bounded_capacity);
    src->AddSubscriber(buf.input());
    AddHandle(-1, OpKind::kSource, false, ConservationRule::kExactPlusShed,
              &buf);
    return &buf;
  }
};

void RegisterChain(Builder& b, const algebra::ParallelTopology& t,
                   OpKind kind) {
  for (Node* s : t.splitters) {
    b.AddHandle(-1, kind, false, ConservationRule::kExact, s);
  }
  b.AddHandle(-1, kind, false, ConservationRule::kExact, t.merge);
  for (const auto& bufs : t.replica_inputs) {
    for (Node* buf : bufs) {
      b.AddHandle(-1, kind, false, ConservationRule::kExactPlusShed, buf);
    }
  }
  for (Node* buf : t.replica_outputs) {
    b.AddHandle(-1, kind, false, ConservationRule::kExactPlusShed, buf);
  }
  for (Node* r : t.replicas) {
    b.AddHandle(-1, kind, true, RuleFor(kind), r);
  }
}

}  // namespace

const char* CanaryKindName(CanaryKind kind) {
  switch (kind) {
    case CanaryKind::kNone:
      return "none";
    case CanaryKind::kDropElement:
      return "drop-element";
    case CanaryKind::kDuplicateElement:
      return "duplicate-element";
    case CanaryKind::kCorruptPayload:
      return "corrupt-payload";
    case CanaryKind::kWidenInterval:
      return "widen-interval";
    case CanaryKind::kStaleReplay:
      return "stale-replay";
    case CanaryKind::kHeartbeatOvershoot:
      return "heartbeat-overshoot";
  }
  return "unknown";
}

std::uint64_t Materialized::TotalShed() const {
  std::uint64_t total = 0;
  for (const auto& node : graph.nodes()) {
    total += node->ShedCount();
  }
  return total;
}

std::unique_ptr<Materialized> Materialize(
    const PlanSpec& spec, const std::vector<Stream>& raw_inputs,
    const std::vector<StreamProfile>& profiles,
    const MaterializeOptions& options) {
  spec.CheckValid();
  PIPES_CHECK(static_cast<int>(raw_inputs.size()) >= spec.NumStreams());
  PIPES_CHECK(static_cast<int>(profiles.size()) >= spec.NumStreams());

  auto result = std::make_unique<Materialized>();
  Builder b(spec, options, *result);
  QueryGraph& g = result->graph;

  // outputs[i]: the source a consumer of spec node i subscribes to.
  std::vector<Source<Val>*> outputs(spec.nodes.size(), nullptr);

  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    const SpecNode& n = spec.nodes[i];
    const int idx = static_cast<int>(i);
    const std::string name =
        std::string(OpKindName(n.kind)) + "-" + std::to_string(i);
    const bool replicate =
        options.parallel_node == idx && TraitsOf(n.kind).key_partitionable &&
        options.parallel_replicas >= 2;

    // in0/in1: child outputs, with optional seeded buffer interposition.
    // Source-attached windows keep a direct edge to their source.
    Source<Val>* in0 = nullptr;
    Source<Val>* in1 = nullptr;
    if (n.in0 >= 0) {
      in0 = TraitsOf(n.kind).source_attached ? outputs[n.in0]
                                             : b.MaybeBuffer(outputs[n.in0]);
    }
    if (n.in1 >= 0) in1 = b.MaybeBuffer(outputs[n.in1]);

    switch (n.kind) {
      case OpKind::kSource: {
        const Stream& raw = raw_inputs[n.stream];
        const StreamProfile& profile = profiles[n.stream];
        if (n.stream == options.gated_stream) {
          auto& src = g.Add<GatedVectorSource>(Canonicalize(raw), name);
          result->gates.push_back(&src);
          outputs[i] = &src;
          b.AddHandle(idx, n.kind, true, ConservationRule::kNone, &src);
        } else if (options.use_reorder_source && profile.disorder > 0) {
          // Replays the raw (disordered) stream through the reordering
          // adapter; slack = the profile's disorder bound, so nothing is
          // dropped and the emitted order equals the canonical order.
          auto generator = [raw, pos = std::size_t{0}]() mutable
              -> std::optional<Elem> {
            if (pos >= raw.size()) return std::nullopt;
            return raw[pos++];
          };
          auto& src = g.Add<ReorderingSource<Val>>(std::move(generator),
                                                   profile.disorder, name);
          // The generator hides the feed from Describe(), so declare the
          // finite total and the raw feed's disorder as per-instance
          // dataflow gauges — the static analysis bounds downstream state
          // with them, and the fuzz bound-oracle holds it to that.
          src.metadata().SetGauge("dataflow.total_elements",
                                  static_cast<double>(raw.size()));
          src.metadata().SetGauge("dataflow.feed_disorder",
                                  static_cast<double>(profile.disorder));
          outputs[i] = &src;
          b.AddHandle(idx, n.kind, true, ConservationRule::kNone, &src);
        } else {
          auto& src = g.Add<VectorSource<Val>>(Canonicalize(raw), name,
                                               options.source_batch);
          outputs[i] = &src;
          b.AddHandle(idx, n.kind, true, ConservationRule::kNone, &src);
        }
        break;
      }
      case OpKind::kFilter: {
        auto& op = g.Add<Filter<Val, PredFn>>(PredFn{n}, name);
        in0->AddSubscriber(op.input());
        outputs[i] = &op;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        break;
      }
      case OpKind::kMap: {
        auto& op = g.Add<Map<Val, Val, MapFn>>(MapFn{n}, name);
        in0->AddSubscriber(op.input());
        outputs[i] = &op;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        break;
      }
      case OpKind::kTimeWindow: {
        auto& op = g.Add<TimeWindow<Val>>(n.p0, name);
        in0->AddSubscriber(op.input());
        outputs[i] = &op;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        break;
      }
      case OpKind::kSlideWindow: {
        auto& op = g.Add<SlideWindow<Val>>(n.p0, n.p1, name);
        in0->AddSubscriber(op.input());
        outputs[i] = &op;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        break;
      }
      case OpKind::kUnboundedWindow: {
        auto& op = g.Add<UnboundedWindow<Val>>(name);
        in0->AddSubscriber(op.input());
        outputs[i] = &op;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        break;
      }
      case OpKind::kCountWindow: {
        auto& op = g.Add<CountWindow<Val>>(static_cast<std::size_t>(n.p0),
                                           name);
        in0->AddSubscriber(op.input());
        outputs[i] = &op;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        break;
      }
      case OpKind::kPartitionedWindow: {
        const GroupKeyFn key{n.p1};
        if (replicate) {
          auto chain = MakeKeyedParallel<PartitionedWindow<Val, GroupKeyFn>>(
              g, options.parallel_replicas, key, key,
              static_cast<std::size_t>(n.p0), name);
          in0->AddSubscriber(*chain.input);
          outputs[i] = chain.output;
          RegisterChain(b, chain, n.kind);
        } else {
          auto& op = g.Add<PartitionedWindow<Val, GroupKeyFn>>(
              key, static_cast<std::size_t>(n.p0), name);
          in0->AddSubscriber(op.input());
          outputs[i] = &op;
          b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        }
        break;
      }
      case OpKind::kUnion: {
        auto& op = g.Add<Union<Val>>(name);
        in0->AddSubscriber(op.left());
        in1->AddSubscriber(op.right());
        outputs[i] = &op;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        break;
      }
      case OpKind::kHashJoin: {
        const JoinKeyFn key{n.p0};
        if (replicate) {
          auto chain = MakeParallelHashJoin<Val, Val>(
              g, options.parallel_replicas, key, key, CombineFn{}, name);
          in0->AddSubscriber(*chain.left);
          in1->AddSubscriber(*chain.right);
          outputs[i] = chain.output;
          RegisterChain(b, chain, n.kind);
          for (Node* r : chain.replicas) {
            auto* user = dynamic_cast<memory::MemoryUser*>(r);
            PIPES_CHECK(user != nullptr);
            result->memory_users.push_back(user);
          }
        } else if (options.spillable_joins) {
          auto& op = g.Add(MakeSpillableHashJoin<Val, Val>(key, key,
                                                           CombineFn{}, name));
          in0->AddSubscriber(op.left());
          in1->AddSubscriber(op.right());
          outputs[i] = &op;
          b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
          result->memory_users.push_back(&op);
        } else {
          auto& op =
              g.Add(MakeHashJoin<Val, Val>(key, key, CombineFn{}, name));
          in0->AddSubscriber(op.left());
          in1->AddSubscriber(op.right());
          outputs[i] = &op;
          b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
          result->memory_users.push_back(&op);
        }
        break;
      }
      case OpKind::kSum: {
        auto& op = g.Add<SumOp>(ToU64Fn{}, name);
        auto& enc = g.Add<Map<std::uint64_t, Val, EncodeSumFn>>(
            EncodeSumFn{}, name + "-encode");
        in0->AddSubscriber(op.input());
        op.AddSubscriber(enc.input());
        outputs[i] = &enc;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        b.AddHandle(-1, OpKind::kMap, false, ConservationRule::kExact, &enc);
        break;
      }
      case OpKind::kGroupSum: {
        const GroupKeyFn key{n.p0};
        auto& enc = g.Add<Map<std::pair<Val, std::uint64_t>, Val,
                              EncodeGroupFn>>(EncodeGroupFn{},
                                              name + "-encode");
        if (replicate) {
          auto chain = MakeKeyedParallel<GroupSumOp>(
              g, options.parallel_replicas, key, key, ToU64Fn{}, name);
          in0->AddSubscriber(*chain.input);
          chain.output->AddSubscriber(enc.input());
          RegisterChain(b, chain, n.kind);
        } else {
          auto& op = g.Add<GroupSumOp>(key, ToU64Fn{}, name);
          in0->AddSubscriber(op.input());
          op.AddSubscriber(enc.input());
          b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        }
        outputs[i] = &enc;
        b.AddHandle(-1, OpKind::kMap, false, ConservationRule::kExact, &enc);
        break;
      }
      case OpKind::kDistinct: {
        if (replicate) {
          auto chain = MakeKeyedParallel<Distinct<Val>>(
              g, options.parallel_replicas, IdentityKeyFn{}, name);
          in0->AddSubscriber(*chain.input);
          outputs[i] = chain.output;
          RegisterChain(b, chain, n.kind);
        } else {
          auto& op = g.Add<Distinct<Val>>(name);
          in0->AddSubscriber(op.input());
          outputs[i] = &op;
          b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        }
        break;
      }
      case OpKind::kDifference: {
        auto& op = g.Add<Difference<Val>>(name);
        in0->AddSubscriber(op.left());
        in1->AddSubscriber(op.right());
        outputs[i] = &op;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        break;
      }
      case OpKind::kIntersect: {
        auto& op = g.Add<Intersect<Val>>(name);
        in0->AddSubscriber(op.left());
        in1->AddSubscriber(op.right());
        outputs[i] = &op;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        break;
      }
      case OpKind::kIStream: {
        auto& op = g.Add<IStream<Val>>(name);
        in0->AddSubscriber(op.input());
        outputs[i] = &op;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        break;
      }
      case OpKind::kDStream: {
        auto& op = g.Add<DStream<Val>>(name);
        in0->AddSubscriber(op.input());
        outputs[i] = &op;
        b.AddHandle(idx, n.kind, true, RuleFor(n.kind), &op);
        break;
      }
    }
  }

  Source<Val>* tail = outputs[spec.root];
  if (options.canary != CanaryKind::kNone) {
    auto& canary = g.Add<CanaryPipe>(options.canary);
    tail->AddSubscriber(canary.input());
    tail = &canary;
  }
  auto& sink = g.Add<OracleSink>();
  tail->AddSubscriber(sink.input());
  result->sink = &sink;
  return result;
}

}  // namespace pipes::testing
