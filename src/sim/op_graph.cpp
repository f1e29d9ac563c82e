#include "sim/op_graph.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace tidacc::sim {

const char* to_string(NodeClass c) {
  switch (c) {
    case NodeClass::kOp:
      return "op";
    case NodeClass::kEventMark:
      return "event";
    case NodeClass::kRecvPost:
      return "recv_post";
  }
  return "?";
}

const char* to_string(EdgeOrigin o) {
  switch (o) {
    case EdgeOrigin::kStream:
      return "stream";
    case EdgeOrigin::kEngine:
      return "engine";
    case EdgeOrigin::kEvent:
      return "event";
    case EdgeOrigin::kHost:
      return "host";
    case EdgeOrigin::kCredit:
      return "credit";
    case EdgeOrigin::kCq:
      return "cq";
  }
  return "?";
}

bool conflicts(const AccessRange& a, const AccessRange& b) {
  if (!a.write && !b.write) {
    return false;
  }
  if (a.base == b.base) {
    return boxes_overlap(a.box, b.box);
  }
  return a.base + a.box.offset < b.base + box_end(b.box) &&
         b.base + b.box.offset < a.base + box_end(a.box);
}

int OpGraph::add_node(OpNode n) {
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size() - 1);
}

void OpGraph::add_edge(int src, int dst, EdgeOrigin origin) {
  TIDACC_CHECK_MSG(src >= 0 && src < static_cast<int>(nodes_.size()) &&
                       dst >= 0 && dst < static_cast<int>(nodes_.size()),
                   "op-graph edge endpoint out of range");
  edges_.push_back(OpEdge{src, dst, origin});
}

int OpGraph::last_node_of_stream(StreamId s) const {
  const auto it = last_on_stream_.find(s);
  return it == last_on_stream_.end() ? -1 : it->second;
}

void OpGraph::join_frontier(StreamId s, int node) {
  if (node < 0) {
    return;
  }
  FrontierEntry& entry = host_frontier_[s];
  // Node ids grow monotonically per stream, so the newest (= dominating
  // under stream program order) observation wins.
  if (node >= entry.node) {
    entry = FrontierEntry{node, take_join_origin()};
  } else {
    (void)take_join_origin();
  }
}

EdgeOrigin OpGraph::take_join_origin() {
  if (join_hint_armed_) {
    join_hint_armed_ = false;
    return join_hint_;
  }
  return EdgeOrigin::kHost;
}

void OpGraph::set_join_origin_hint(EdgeOrigin o) {
  join_hint_armed_ = true;
  join_hint_ = o;
}

int OpGraph::on_scheduled(const SchedRecord& r,
                          const std::vector<std::uint64_t>& lane_keys,
                          const std::vector<const void*>& ext_lane_keys) {
  OpNode n;
  n.cls = NodeClass::kOp;
  n.kind = r.kind;
  n.engine = r.engine;
  n.stream = r.stream;
  n.device = r.device;
  n.start = r.start;
  n.finish = r.finish;
  n.bytes = r.bytes;
  if (r.label != nullptr) {
    n.label = *r.label;
  }
  if (r.hb != nullptr) {
    n.hb = *r.hb;
  }
  const int id = add_node(std::move(n));

  // Collect (src, origin) pairs first so duplicates can be skipped — the
  // stream predecessor is often also the lane predecessor.
  std::vector<std::pair<int, EdgeOrigin>> in;
  const auto push = [&in](int src, EdgeOrigin origin) {
    if (src < 0) {
      return;
    }
    for (const auto& [s, o] : in) {
      if (s == src && o == origin) {
        return;
      }
    }
    in.emplace_back(src, origin);
  };

  push(last_node_of_stream(r.stream), EdgeOrigin::kStream);
  for (const std::uint64_t key : lane_keys) {
    const auto it = lane_last_.find(key);
    push(it == lane_last_.end() ? -1 : it->second, EdgeOrigin::kEngine);
    lane_last_[key] = id;
  }
  for (const void* key : ext_lane_keys) {
    const auto it = ext_lane_last_.find(key);
    push(it == ext_lane_last_.end() ? -1 : it->second, EdgeOrigin::kEngine);
    ext_lane_last_[key] = id;
  }
  if (const auto pit = pending_event_edges_.find(r.stream);
      pit != pending_event_edges_.end()) {
    for (const int ev : pit->second) {
      push(ev, EdgeOrigin::kEvent);
    }
    pending_event_edges_.erase(pit);
  }
  if (pending_credit_node_ >= 0) {
    push(pending_credit_node_, EdgeOrigin::kCredit);
    pending_credit_node_ = -1;
  }
  // Host-observation frontier: the op is enqueued after everything the
  // host has observed complete. Entries on the op's own stream are
  // redundant with program order.
  for (const auto& [stream, entry] : host_frontier_) {
    if (stream != r.stream) {
      push(entry.node, entry.origin);
    }
  }

  for (const auto& [src, origin] : in) {
    add_edge(src, id, origin);
  }
  last_on_stream_[r.stream] = id;
  last_op_on_stream_[r.stream] = id;
  last_op_node_ = id;
  return id;
}

void OpGraph::on_event_record(StreamId s, EventId e, SimTime t, int device,
                              const HbClock* hb) {
  OpNode n;
  n.cls = NodeClass::kEventMark;
  n.kind = OpKind::kEventRecord;
  n.stream = s;
  n.device = device;
  n.start = t;
  n.finish = t;
  n.label = "event#" + std::to_string(e);
  if (hb != nullptr) {
    n.hb = *hb;
  }
  const int id = add_node(std::move(n));
  if (const int pred = last_node_of_stream(s); pred >= 0) {
    add_edge(pred, id, EdgeOrigin::kStream);
  }
  // The record point carries everything stream-ordered before it,
  // including waits the stream already consumed and the host frontier.
  if (const auto pit = pending_event_edges_.find(s);
      pit != pending_event_edges_.end()) {
    for (const int ev : pit->second) {
      add_edge(ev, id, EdgeOrigin::kEvent);
    }
    pending_event_edges_.erase(pit);
  }
  for (const auto& [stream, entry] : host_frontier_) {
    if (stream != s && entry.node >= 0) {
      add_edge(entry.node, id, entry.origin);
    }
  }
  last_on_stream_[s] = id;
  event_nodes_[e] = id;
}

void OpGraph::on_stream_wait_event(StreamId s, EventId e) {
  const auto it = event_nodes_.find(e);
  if (it == event_nodes_.end()) {
    // The event predates this graph (recorded before attachment): the
    // ordering it carries is unknown, so MHP certification is off.
    ++unknown_event_waits_;
    return;
  }
  pending_event_edges_[s].push_back(it->second);
}

void OpGraph::on_host_join_stream(StreamId s) {
  join_frontier(s, last_node_of_stream(s));
}

void OpGraph::on_host_join_event(EventId e) {
  const auto it = event_nodes_.find(e);
  if (it == event_nodes_.end()) {
    (void)take_join_origin();
    return;
  }
  join_frontier(nodes_[static_cast<size_t>(it->second)].stream, it->second);
}

void OpGraph::on_host_join_all() {
  for (const auto& [stream, node] : last_on_stream_) {
    join_frontier(stream, node);
  }
}

void OpGraph::on_host_join_last_op() {
  if (last_op_node_ >= 0) {
    join_frontier(nodes_[static_cast<size_t>(last_op_node_)].stream,
                  last_op_node_);
  }
}

void OpGraph::note_access(StreamId s, const AccessRange& access) {
  const auto it = last_op_on_stream_.find(s);
  if (box_end(access.box) == access.box.offset ||
      it == last_op_on_stream_.end()) {
    return;
  }
  nodes_[static_cast<size_t>(it->second)].accesses.push_back(access);
}

int OpGraph::on_recv_post(std::string label, SimTime t) {
  OpNode n;
  n.cls = NodeClass::kRecvPost;
  n.kind = OpKind::kNetSend;
  n.engine = EngineId::kNic;
  n.start = t;
  n.finish = t;
  n.label = std::move(label);
  return add_node(std::move(n));
}

void OpGraph::arm_credit_edge(int recv_node) {
  pending_credit_node_ = recv_node;
}

bool OpGraph::is_wait_origin(EdgeOrigin o) {
  return o != EdgeOrigin::kEngine;
}

/// Kahn's algorithm over the (optionally wait-only) edge set. Returns
/// false when a cycle prevents a complete order.
bool OpGraph::topo_order(std::vector<int>* out, bool waits_only) const {
  const int n = static_cast<int>(nodes_.size());
  std::vector<int> indeg(static_cast<size_t>(n), 0);
  std::vector<std::vector<int>> succ(static_cast<size_t>(n));
  for (const OpEdge& e : edges_) {
    if (waits_only && !is_wait_origin(e.origin)) {
      continue;
    }
    succ[static_cast<size_t>(e.src)].push_back(e.dst);
    ++indeg[static_cast<size_t>(e.dst)];
  }
  std::vector<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indeg[static_cast<size_t>(i)] == 0) {
      ready.push_back(i);
    }
  }
  out->clear();
  out->reserve(static_cast<size_t>(n));
  while (!ready.empty()) {
    const int v = ready.back();
    ready.pop_back();
    out->push_back(v);
    for (const int w : succ[static_cast<size_t>(v)]) {
      if (--indeg[static_cast<size_t>(w)] == 0) {
        ready.push_back(w);
      }
    }
  }
  return static_cast<int>(out->size()) == n;
}

std::vector<int> OpGraph::cycle_impl(bool waits_only) const {
  const int n = static_cast<int>(nodes_.size());
  std::vector<std::vector<int>> succ(static_cast<size_t>(n));
  for (const OpEdge& e : edges_) {
    if (waits_only && !is_wait_origin(e.origin)) {
      continue;
    }
    succ[static_cast<size_t>(e.src)].push_back(e.dst);
  }
  // Iterative DFS with colors; on a back edge, unwind the explicit stack
  // to extract the cycle's node sequence.
  enum : char { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<char> color(static_cast<size_t>(n), kWhite);
  for (int root = 0; root < n; ++root) {
    if (color[static_cast<size_t>(root)] != kWhite) {
      continue;
    }
    std::vector<std::pair<int, size_t>> stack{{root, 0}};
    color[static_cast<size_t>(root)] = kGray;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      if (next < succ[static_cast<size_t>(v)].size()) {
        const int w = succ[static_cast<size_t>(v)][next++];
        if (color[static_cast<size_t>(w)] == kGray) {
          std::vector<int> cycle;
          for (size_t i = stack.size(); i-- > 0;) {
            cycle.push_back(stack[i].first);
            if (stack[i].first == w) {
              break;
            }
          }
          std::reverse(cycle.begin(), cycle.end());
          return cycle;
        }
        if (color[static_cast<size_t>(w)] == kWhite) {
          color[static_cast<size_t>(w)] = kGray;
          stack.emplace_back(w, 0);
        }
      } else {
        color[static_cast<size_t>(v)] = kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

std::vector<int> OpGraph::find_cycle() const {
  return cycle_impl(/*waits_only=*/false);
}

std::vector<int> OpGraph::deadlock_cycle() const {
  return cycle_impl(/*waits_only=*/true);
}

CriticalPathReport OpGraph::critical_path() const {
  std::vector<int> order;
  TIDACC_CHECK_MSG(topo_order(&order, /*waits_only=*/false),
                   "critical_path on a cyclic graph (run find_cycle first)");
  const size_t n = nodes_.size();
  CriticalPathReport rep;
  if (n == 0) {
    return rep;
  }
  const auto dur = [this](size_t i) {
    return nodes_[i].finish - nodes_[i].start;
  };
  std::vector<std::vector<int>> pred(n);
  std::vector<std::vector<int>> succ(n);
  for (const OpEdge& e : edges_) {
    pred[static_cast<size_t>(e.dst)].push_back(e.src);
    succ[static_cast<size_t>(e.src)].push_back(e.dst);
  }
  // Earliest start: longest chain of durations feeding each node.
  std::vector<SimTime> es(n, 0);
  for (const int v : order) {
    const auto vi = static_cast<size_t>(v);
    for (const int p : pred[vi]) {
      const auto pi = static_cast<size_t>(p);
      es[vi] = std::max(es[vi], es[pi] + dur(pi));
    }
  }
  int sink = 0;
  for (size_t i = 0; i < n; ++i) {
    if (es[i] + dur(i) > rep.length) {
      rep.length = es[i] + dur(i);
      sink = static_cast<int>(i);
    }
  }
  // Latest finish (bounded by the chain length), then slack.
  std::vector<SimTime> lf(n, rep.length);
  for (size_t oi = order.size(); oi-- > 0;) {
    const auto vi = static_cast<size_t>(order[oi]);
    for (const int s : succ[vi]) {
      const auto sci = static_cast<size_t>(s);
      lf[vi] = std::min(lf[vi], lf[sci] - dur(sci));
    }
  }
  rep.slack.resize(n, 0);
  for (size_t i = 0; i < n; ++i) {
    rep.slack[i] = lf[i] - es[i] - dur(i);
  }
  // Walk the chain back from the sink through es-achieving predecessors.
  int v = sink;
  rep.path.push_back(v);
  while (es[static_cast<size_t>(v)] > 0) {
    const auto vi = static_cast<size_t>(v);
    int best = -1;
    for (const int p : pred[vi]) {
      const auto pi = static_cast<size_t>(p);
      if (es[pi] + dur(pi) == es[vi]) {
        best = p;
        break;
      }
    }
    if (best < 0) {
      break;
    }
    v = best;
    rep.path.push_back(v);
  }
  std::reverse(rep.path.begin(), rep.path.end());
  SimTime lo = nodes_[0].start;
  SimTime hi = nodes_[0].finish;
  for (const OpNode& node : nodes_) {
    lo = std::min(lo, node.start);
    hi = std::max(hi, node.finish);
  }
  rep.makespan = hi - lo;
  return rep;
}

namespace {

struct Interval {
  SimTime start = 0;
  SimTime finish = 0;
};

struct TransferInterval {
  Interval span;
  int node = -1;
  const std::string* label = nullptr;
};

/// Shared core of OpGraph::overlap() and overlap_report(Trace): exposed
/// time of each transfer against the union of compute intervals.
OverlapReport overlap_from_intervals(std::vector<Interval> compute,
                                     const std::vector<TransferInterval>& xs) {
  // Merge the compute intervals into a disjoint sorted union.
  std::sort(compute.begin(), compute.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::vector<Interval> merged;
  for (const Interval& c : compute) {
    if (!merged.empty() && c.start <= merged.back().finish) {
      merged.back().finish = std::max(merged.back().finish, c.finish);
    } else {
      merged.push_back(c);
    }
  }
  OverlapReport rep;
  for (const TransferInterval& t : xs) {
    const SimTime dur = t.span.finish - t.span.start;
    rep.transfer_busy_ns += dur;
    SimTime hidden = 0;
    for (const Interval& m : merged) {
      if (m.finish <= t.span.start) {
        continue;
      }
      if (m.start >= t.span.finish) {
        break;
      }
      hidden += std::min(m.finish, t.span.finish) -
                std::max(m.start, t.span.start);
    }
    const SimTime exposed = dur - hidden;
    rep.exposed_ns += exposed;
    if (exposed > 0) {
      ExposedTransfer e;
      e.node = t.node;
      if (t.label != nullptr) {
        e.label = *t.label;
      }
      e.start = t.span.start;
      e.finish = t.span.finish;
      e.exposed_ns = exposed;
      rep.exposed.push_back(e);
    }
  }
  rep.efficiency =
      rep.transfer_busy_ns > 0
          ? 1.0 - static_cast<double>(rep.exposed_ns) /
                      static_cast<double>(rep.transfer_busy_ns)
          : 1.0;
  return rep;
}

}  // namespace

OverlapReport OpGraph::overlap() const {
  std::vector<Interval> compute;
  std::vector<TransferInterval> transfers;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const OpNode& n = nodes_[i];
    if (n.cls != NodeClass::kOp) {
      continue;
    }
    if (n.kind == OpKind::kKernel) {
      compute.push_back(Interval{n.start, n.finish});
    } else if (is_transfer(n.kind)) {
      transfers.push_back(TransferInterval{Interval{n.start, n.finish},
                                           static_cast<int>(i), &n.label});
    }
  }
  return overlap_from_intervals(std::move(compute), transfers);
}

OverlapReport overlap_report(const Trace& trace) {
  std::vector<Interval> compute;
  std::vector<TransferInterval> transfers;
  for (size_t i = 0; i < trace.events().size(); ++i) {
    const TraceEvent& ev = trace.events()[i];
    if (ev.kind == OpKind::kKernel) {
      compute.push_back(Interval{ev.start, ev.finish});
    } else if (is_transfer(ev.kind)) {
      transfers.push_back(TransferInterval{Interval{ev.start, ev.finish},
                                           static_cast<int>(i), &ev.label});
    }
  }
  return overlap_from_intervals(std::move(compute), transfers);
}

std::vector<FalseSerialization> OpGraph::false_serializations() const {
  const size_t n = nodes_.size();
  std::vector<std::vector<const OpEdge*>> in(n);
  for (const OpEdge& e : edges_) {
    in[static_cast<size_t>(e.dst)].push_back(&e);
  }
  // Data-dependence test endpoints: kEvent edges run through zero-duration
  // event marks, so the meaningful producer is the mark's stream
  // predecessor.
  const auto effective_src = [&](int src) {
    int v = src;
    while (v >= 0 && nodes_[static_cast<size_t>(v)].cls ==
                         NodeClass::kEventMark) {
      int pred = -1;
      for (const OpEdge* e : in[static_cast<size_t>(v)]) {
        if (e->origin == EdgeOrigin::kStream) {
          pred = e->src;
          break;
        }
      }
      if (pred == v) {
        break;
      }
      v = pred;
    }
    return v;
  };
  const auto independent = [&](const OpNode& a, const OpNode& b) {
    if (a.accesses.empty() || b.accesses.empty()) {
      return false;  // unannotated: cannot prove independence
    }
    for (const AccessRange& ra : a.accesses) {
      for (const AccessRange& rb : b.accesses) {
        if (conflicts(ra, rb)) {
          return false;
        }
      }
    }
    return true;
  };

  std::vector<FalseSerialization> out;
  for (size_t bi = 0; bi < n; ++bi) {
    const OpNode& b = nodes_[bi];
    if (b.cls != NodeClass::kOp || !is_transfer(b.kind)) {
      continue;
    }
    for (const OpEdge* e : in[bi]) {
      if (e->origin == EdgeOrigin::kEngine ||
          e->origin == EdgeOrigin::kCredit) {
        continue;  // hardware / protocol constraints, not schedule choices
      }
      const OpNode& a = nodes_[static_cast<size_t>(e->src)];
      // Binding: this edge alone pinned the transfer's start time.
      if (a.finish != b.start) {
        continue;
      }
      SimTime next = 0;
      bool tied = false;
      for (const OpEdge* o : in[bi]) {
        if (o == e) {
          continue;
        }
        const SimTime f = nodes_[static_cast<size_t>(o->src)].finish;
        if (f >= a.finish) {
          tied = true;
          break;
        }
        next = std::max(next, f);
      }
      if (tied || a.finish <= next) {
        continue;
      }
      const int prod = effective_src(e->src);
      if (prod < 0 ||
          !independent(nodes_[static_cast<size_t>(prod)], b)) {
        continue;
      }
      FalseSerialization f;
      f.src = e->src;
      f.dst = static_cast<int>(bi);
      f.origin = e->origin;
      f.slack_cost_ns = a.finish - next;
      out.push_back(f);
    }
  }
  return out;
}

std::vector<MhpMismatch> OpGraph::mhp_crosscheck(
    std::size_t max_report) const {
  std::vector<MhpMismatch> out;
  if (!mhp_checkable()) {
    return out;
  }
  const size_t n = nodes_.size();
  std::vector<int> order;
  if (!topo_order(&order, /*waits_only=*/false)) {
    return out;  // cyclic graphs carry no meaningful MHP relation
  }
  // Reachability over every edge except kEngine (the hb model's exact
  // exclusion), as bitsets filled in reverse topological order.
  const size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> reach(n * words, 0);
  std::vector<std::vector<int>> succ(n);
  for (const OpEdge& e : edges_) {
    if (e.origin != EdgeOrigin::kEngine) {
      succ[static_cast<size_t>(e.src)].push_back(e.dst);
    }
  }
  for (size_t oi = order.size(); oi-- > 0;) {
    const auto v = static_cast<size_t>(order[oi]);
    for (const int w : succ[v]) {
      const auto wi = static_cast<size_t>(w);
      reach[v * words + wi / 64] |= 1ull << (wi % 64);
      for (size_t k = 0; k < words; ++k) {
        reach[v * words + k] |= reach[wi * words + k];
      }
    }
  }
  const auto reaches = [&](size_t a, size_t b) {
    return (reach[a * words + b / 64] >> (b % 64)) & 1u;
  };
  std::vector<size_t> checked;
  for (size_t i = 0; i < n; ++i) {
    if (nodes_[i].cls == NodeClass::kOp && !nodes_[i].hb.empty()) {
      checked.push_back(i);
    }
  }
  for (size_t x = 0; x < checked.size() && out.size() < max_report; ++x) {
    for (size_t y = x + 1; y < checked.size() && out.size() < max_report;
         ++y) {
      const size_t a = checked[x];
      const size_t b = checked[y];
      const bool stat = reaches(a, b) || reaches(b, a);
      const bool dyn = hb_leq(nodes_[a].hb, nodes_[b].hb) ||
                       hb_leq(nodes_[b].hb, nodes_[a].hb);
      if (stat != dyn) {
        out.push_back(MhpMismatch{static_cast<int>(a), static_cast<int>(b),
                                  stat, dyn});
      }
    }
  }
  return out;
}

}  // namespace tidacc::sim
