#include "graph/delta.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <string_view>
#include <utility>

#include "util/bytes.h"

namespace rtr {
namespace {

static_assert(sizeof(size_t) == 8, "rtr-delt 2 assumes 64-bit size_t");
static_assert(std::endian::native == std::endian::little,
              "rtr-delt 2 assumes a little-endian host");

// One delta operation in (source, target) order. Removals sort before the
// inserts on the same arc (a delta removes first, then inserts — so
// remove-then-readd replaces the weight); inserts on one arc keep their
// added_arcs order so repeated inserts accumulate deterministically.
struct Op {
  NodeId source;
  NodeId target;
  double weight;  // 0 for removals
  bool remove;
  uint32_t seq;

  bool operator<(const Op& other) const {
    if (source != other.source) return source < other.source;
    if (target != other.target) return target < other.target;
    if (remove != other.remove) return remove;  // removal first
    return seq < other.seq;
  }
};

std::string ArcName(NodeId u, NodeId v) {
  return std::to_string(u) + "->" + std::to_string(v);
}

// Binary search for `target` in a node's sorted out-targets span; returns
// the in-span index or npos.
size_t FindArcSlot(std::span<const NodeId> targets, NodeId target) {
  auto it = std::lower_bound(targets.begin(), targets.end(), target);
  if (it == targets.end() || *it != target) {
    return std::string::npos;
  }
  return static_cast<size_t>(it - targets.begin());
}

}  // namespace

// Friend of Graph: assembles the next generation's frozen columns directly,
// block-copying every row the delta does not touch.
class DeltaOps {
 public:
  static StatusOr<Graph> Apply(const Graph& base, const GraphDelta& delta) {
    const size_t old_n = base.num_nodes();
    const size_t n = old_n + delta.added_node_types.size();
    const size_t num_types =
        base.type_names().size() + delta.added_type_names.size();

    // ---- Validation (all-or-nothing: nothing is built until it passes).
    if (n >= kInvalidNode) {
      return Status::InvalidArgument("delta node count overflows NodeId");
    }
    if (num_types > std::numeric_limits<NodeTypeId>::max()) {
      return Status::InvalidArgument("delta type count overflows NodeTypeId");
    }
    for (NodeTypeId t : delta.added_node_types) {
      if (t >= num_types) {
        return Status::InvalidArgument("added node type out of range");
      }
    }
    for (const ArcRemove& r : delta.removed_arcs) {
      // Removals run before inserts, so they can only name base arcs.
      if (r.source >= old_n || r.target >= old_n) {
        return Status::InvalidArgument("removed arc " +
                                       ArcName(r.source, r.target) +
                                       " endpoint out of range");
      }
      if (FindArcSlot(base.out_targets(r.source), r.target) ==
          std::string::npos) {
        return Status::InvalidArgument("removed arc " +
                                       ArcName(r.source, r.target) +
                                       " not present in base");
      }
    }
    for (const ArcInsert& a : delta.added_arcs) {
      if (a.source >= n || a.target >= n) {
        return Status::InvalidArgument("inserted arc " +
                                       ArcName(a.source, a.target) +
                                       " endpoint out of range");
      }
      if (!(a.weight > 0.0)) {
        return Status::InvalidArgument("inserted arc " +
                                       ArcName(a.source, a.target) +
                                       " weight must be positive");
      }
    }

    // ---- Sort the ops by (source, target); detect duplicate removals.
    std::vector<Op> ops;
    ops.reserve(delta.removed_arcs.size() + delta.added_arcs.size());
    for (const ArcRemove& r : delta.removed_arcs) {
      ops.push_back({r.source, r.target, 0.0, true, 0});
    }
    for (uint32_t i = 0; i < delta.added_arcs.size(); ++i) {
      const ArcInsert& a = delta.added_arcs[i];
      ops.push_back({a.source, a.target, a.weight, false, i});
    }
    std::sort(ops.begin(), ops.end());
    for (size_t i = 1; i < ops.size(); ++i) {
      if (ops[i].remove && ops[i - 1].remove &&
          ops[i].source == ops[i - 1].source &&
          ops[i].target == ops[i - 1].target) {
        return Status::InvalidArgument(
            "arc " + ArcName(ops[i].source, ops[i].target) +
            " removed twice");
      }
    }

    // ---- Touched-row bookkeeping. A source with any op gets its out-row
    // re-merged and its out-weight (hence every out-prob) recomputed; the
    // in-rows of all op targets AND of every touched source's new targets
    // carry derived probabilities that must be refreshed.
    std::vector<uint8_t> out_touched(n, 0);
    std::vector<uint8_t> in_dirty(n, 0);
    for (const Op& op : ops) {
      out_touched[op.source] = 1;
      in_dirty[op.target] = 1;
    }

    // The base is read only through its accessor spans and never written:
    // the next generation's columns are assembled here and bound as a fresh
    // Columns, whatever backs the base (built, bulk-loaded or mapped).
    std::vector<std::string> type_names = base.type_names();
    type_names.insert(type_names.end(), delta.added_type_names.begin(),
                      delta.added_type_names.end());
    Graph::Columns c;
    c.node_types.assign(base.node_types().begin(), base.node_types().end());
    c.node_types.insert(c.node_types.end(), delta.added_node_types.begin(),
                        delta.added_node_types.end());

    // ---- Out-CSR. Merge each touched source's base row with its op run;
    // untouched rows are block-copied with their probabilities intact
    // (their weight total is unchanged, so the derived values still hold).
    c.out_offsets.assign(n + 1, 0);
    c.out_weights.assign(n, 0.0);

    // Per-source merged rows for touched sources, stored flat. The merge
    // mirrors GraphBuilder exactly: rows sorted by target, parallel inserts
    // summed in staging order, weight totals accumulated in target order.
    std::vector<NodeId> merged_targets;
    std::vector<double> merged_weights;
    std::vector<size_t> merged_row_begin(n + 1, 0);  // only touched rows used
    {
      size_t op_i = 0;
      for (NodeId v = 0; v < n; ++v) {
        merged_row_begin[v] = merged_targets.size();
        const bool touched = out_touched[v] != 0;
        // Advance over this source's op run even if logic below bails.
        const size_t run_begin = op_i;
        while (op_i < ops.size() && ops[op_i].source == v) ++op_i;
        if (!touched) continue;
        std::span<const NodeId> bt =
            v < old_n ? base.out_targets(v) : std::span<const NodeId>{};
        std::span<const double> bw =
            v < old_n ? base.out_arc_weights(v) : std::span<const double>{};
        size_t bi = 0;
        size_t oi = run_begin;
        while (bi < bt.size() || oi < op_i) {
          NodeId bt_target = bi < bt.size() ? bt[bi] : kInvalidNode;
          NodeId op_target = oi < op_i ? ops[oi].target : kInvalidNode;
          if (bt_target < op_target) {  // base arc, no ops
            merged_targets.push_back(bt_target);
            merged_weights.push_back(bw[bi]);
            ++bi;
            continue;
          }
          // Ops on op_target (with the base arc's weight when it exists and
          // survives: removal zeroes it, inserts accumulate in seq order).
          NodeId t = op_target;
          bool present = bt_target == t;
          double w = present ? bw[bi] : 0.0;
          if (present) ++bi;
          for (; oi < op_i && ops[oi].target == t; ++oi) {
            if (ops[oi].remove) {
              present = false;
              w = 0.0;
            } else {
              w = present ? w + ops[oi].weight : ops[oi].weight;
              present = true;
            }
          }
          if (present) {
            merged_targets.push_back(t);
            merged_weights.push_back(w);
          }
        }
        c.out_offsets[v + 1] =
            merged_targets.size() - merged_row_begin[v];  // degree, for now
      }
      merged_row_begin[n] = merged_targets.size();
    }
    for (NodeId v = 0; v < n; ++v) {
      if (!out_touched[v]) {
        c.out_offsets[v + 1] = v < old_n ? base.out_degree(v) : 0;
      }
    }
    for (size_t v = 0; v < n; ++v) {
      c.out_offsets[v + 1] += c.out_offsets[v];
    }
    const size_t num_arcs = c.out_offsets[n];

    c.out_targets.resize(num_arcs);
    c.out_arc_weights.resize(num_arcs);
    c.out_probs.resize(num_arcs);
    for (NodeId v = 0; v < n; ++v) {
      const size_t dst = c.out_offsets[v];
      const size_t deg = c.out_offsets[v + 1] - dst;
      if (!out_touched[v]) {
        if (deg == 0) {
          // Dangling (or brand-new) node: builder leaves the weight at 0.
          continue;
        }
        const size_t src = base.out_offsets()[v];
        std::memcpy(c.out_targets.data() + dst,
                    base.out_targets().data() + src, deg * sizeof(NodeId));
        std::memcpy(c.out_arc_weights.data() + dst,
                    base.out_arc_weights().data() + src,
                    deg * sizeof(double));
        std::memcpy(c.out_probs.data() + dst, base.out_probs().data() + src,
                    deg * sizeof(double));
        c.out_weights[v] = base.out_weight(v);
        continue;
      }
      const size_t row = merged_row_begin[v];
      // Weight total first, accumulated in target order — the exact
      // summation order GraphBuilder uses, so the total (and every prob
      // derived from it) is bit-identical to a from-scratch build.
      double total = 0.0;
      for (size_t i = 0; i < deg; ++i) total += merged_weights[row + i];
      c.out_weights[v] = total;
      for (size_t i = 0; i < deg; ++i) {
        c.out_targets[dst + i] = merged_targets[row + i];
        c.out_arc_weights[dst + i] = merged_weights[row + i];
        c.out_probs[dst + i] = merged_weights[row + i] / total;
      }
      // Every arc leaving a touched source carries a re-derived probability;
      // its target's in-row copy must be refreshed too.
      for (size_t i = 0; i < deg; ++i) in_dirty[merged_targets[row + i]] = 1;
    }

    // ---- In-CSR. Dirty rows are rebuilt by consulting the NEW out-rows
    // (the in-columns mirror them entry for entry); clean rows are
    // block-copied.
    c.in_offsets.assign(n + 1, 0);
    // Candidate sources for each dirty in-row: the base row's sources plus
    // every op source targeting it. Collect op sources per target.
    std::vector<Op> by_target = std::move(ops);
    std::sort(by_target.begin(), by_target.end(),
              [](const Op& a, const Op& b) {
                if (a.target != b.target) return a.target < b.target;
                return a.source < b.source;
              });
    std::vector<NodeId> row_sources;  // scratch, reused per dirty row
    // Pass 1: degrees. Pass 2: fill. Both walk the same merged candidates,
    // so the row construction is factored into a lambda.
    std::vector<NodeId> in_sources_scratch;
    auto build_dirty_row = [&](NodeId t, size_t op_begin, size_t op_end,
                               std::vector<NodeId>* out_sources) {
      out_sources->clear();
      std::span<const NodeId> bs =
          t < old_n ? base.in_sources(t) : std::span<const NodeId>{};
      size_t bi = 0;
      size_t oi = op_begin;
      NodeId last = kInvalidNode;
      while (bi < bs.size() || oi < op_end) {
        NodeId b_src = bi < bs.size() ? bs[bi] : kInvalidNode;
        NodeId o_src = oi < op_end ? by_target[oi].source : kInvalidNode;
        NodeId s = std::min(b_src, o_src);
        if (b_src == s) ++bi;
        while (oi < op_end && by_target[oi].source == s) ++oi;
        if (s == last) continue;  // op + base arc on the same source
        last = s;
        // The arc (s, t) exists in the next generation iff the new out-row
        // of s still carries it.
        std::span<const NodeId> row{
            c.out_targets.data() + c.out_offsets[s],
            c.out_offsets[s + 1] - c.out_offsets[s]};
        if (FindArcSlot(row, t) != std::string::npos) {
          out_sources->push_back(s);
        }
      }
    };

    std::vector<size_t> dirty_op_begin(n + 1, 0);
    {
      size_t oi = 0;
      for (NodeId t = 0; t < n; ++t) {
        dirty_op_begin[t] = oi;
        while (oi < by_target.size() && by_target[oi].target == t) ++oi;
      }
      dirty_op_begin[n] = by_target.size();
    }
    for (NodeId t = 0; t < n; ++t) {
      if (!in_dirty[t]) {
        c.in_offsets[t + 1] = t < old_n ? base.in_degree(t) : 0;
      } else {
        build_dirty_row(t, dirty_op_begin[t], dirty_op_begin[t + 1],
                        &row_sources);
        c.in_offsets[t + 1] = row_sources.size();
      }
    }
    for (size_t t = 0; t < n; ++t) c.in_offsets[t + 1] += c.in_offsets[t];
    DCHECK_EQ(c.in_offsets[n], num_arcs);

    c.in_sources.resize(num_arcs);
    c.in_arc_weights.resize(num_arcs);
    c.in_probs.resize(num_arcs);
    for (NodeId t = 0; t < n; ++t) {
      const size_t dst = c.in_offsets[t];
      const size_t deg = c.in_offsets[t + 1] - dst;
      if (!in_dirty[t]) {
        if (deg == 0) continue;
        const size_t src = base.in_offsets()[t];
        std::memcpy(c.in_sources.data() + dst,
                    base.in_sources().data() + src, deg * sizeof(NodeId));
        std::memcpy(c.in_arc_weights.data() + dst,
                    base.in_arc_weights().data() + src, deg * sizeof(double));
        std::memcpy(c.in_probs.data() + dst, base.in_probs().data() + src,
                    deg * sizeof(double));
        continue;
      }
      build_dirty_row(t, dirty_op_begin[t], dirty_op_begin[t + 1],
                      &row_sources);
      DCHECK_EQ(row_sources.size(), deg);
      for (size_t i = 0; i < deg; ++i) {
        const NodeId s = row_sources[i];
        std::span<const NodeId> row{
            c.out_targets.data() + c.out_offsets[s],
            c.out_offsets[s + 1] - c.out_offsets[s]};
        const size_t slot = c.out_offsets[s] + FindArcSlot(row, t);
        // Mirror the out-side entry verbatim — bitwise the same weight and
        // probability a from-scratch build would store here.
        c.in_sources[dst + i] = s;
        c.in_arc_weights[dst + i] = c.out_arc_weights[slot];
        c.in_probs[dst + i] = c.out_probs[slot];
      }
    }

    return Graph::Bind(std::move(type_names), std::move(c));
  }
};

StatusOr<Graph> ApplyDelta(const Graph& base, const GraphDelta& delta) {
  return DeltaOps::Apply(base, delta);
}

StatusOr<GraphDelta> DiffGraphs(const Graph& base, const Graph& next) {
  const size_t old_n = base.num_nodes();
  if (next.num_nodes() < old_n) {
    return Status::InvalidArgument(
        "next graph has fewer nodes than base (deltas are append-only)");
  }
  if (next.type_names().size() < base.type_names().size() ||
      !std::equal(base.type_names().begin(), base.type_names().end(),
                  next.type_names().begin())) {
    return Status::InvalidArgument(
        "base type table is not a prefix of next's");
  }
  for (NodeId v = 0; v < old_n; ++v) {
    if (base.node_type(v) != next.node_type(v)) {
      return Status::InvalidArgument("node " + std::to_string(v) +
                                     " changed type between generations");
    }
  }

  GraphDelta delta;
  delta.added_type_names.assign(
      next.type_names().begin() +
          static_cast<ptrdiff_t>(base.type_names().size()),
      next.type_names().end());
  for (NodeId v = static_cast<NodeId>(old_n); v < next.num_nodes(); ++v) {
    delta.added_node_types.push_back(next.node_type(v));
  }

  for (NodeId v = 0; v < next.num_nodes(); ++v) {
    std::span<const NodeId> bt =
        v < old_n ? base.out_targets(v) : std::span<const NodeId>{};
    std::span<const double> bw =
        v < old_n ? base.out_arc_weights(v) : std::span<const double>{};
    std::span<const NodeId> nt = next.out_targets(v);
    std::span<const double> nw = next.out_arc_weights(v);
    size_t bi = 0, ni = 0;
    while (bi < bt.size() || ni < nt.size()) {
      NodeId b = bi < bt.size() ? bt[bi] : kInvalidNode;
      NodeId t = ni < nt.size() ? nt[ni] : kInvalidNode;
      if (b < t) {
        delta.removed_arcs.push_back({v, b});
        ++bi;
      } else if (t < b) {
        delta.added_arcs.push_back({v, t, nw[ni]});
        ++ni;
      } else {
        // Same arc in both; a weight change is a remove + fresh insert so
        // the re-applied weight is next's exact double.
        if (bw[bi] != nw[ni]) {
          delta.removed_arcs.push_back({v, b});
          delta.added_arcs.push_back({v, t, nw[ni]});
        }
        ++bi;
        ++ni;
      }
    }
  }
  return delta;
}

// --------------------------------------------------------------------------
// Delta file I/O, on the same byte codec as snapshots (util/bytes.h).
// --------------------------------------------------------------------------

namespace {

// The fixed 64-byte header, as laid out in graph/delta.h. The checksum
// covers every field before it, then the payload.
struct DeltaHeader {
  char magic[8];
  uint32_t version;
  uint32_t header_bytes;
  uint64_t base_generation;
  uint64_t num_added_types;
  uint64_t num_added_nodes;
  uint64_t num_removed_arcs;
  uint64_t num_added_arcs;
  uint64_t checksum;
};
constexpr size_t kDeltaHeaderBytes = 64;
static_assert(sizeof(DeltaHeader) == kDeltaHeaderBytes);
// Same hostile-header guard as snapshots.
constexpr uint64_t kMaxDeltaOps = uint64_t{1} << 48;

// The arc columns are the ops themselves, written verbatim.
static_assert(sizeof(ArcRemove) == 8 && offsetof(ArcRemove, target) == 4);
static_assert(sizeof(ArcInsert) == 16 && offsetof(ArcInsert, target) == 4 &&
              offsetof(ArcInsert, weight) == 8);

uint64_t DeltaChecksum(const DeltaHeader& h, std::string_view payload) {
  const std::string_view sealed(reinterpret_cast<const char*>(&h),
                                offsetof(DeltaHeader, checksum));
  return Fnv1a64Words(payload, Fnv1a64Words(sealed));
}

std::string SerializeDeltaPayload(const GraphDelta& delta) {
  std::string payload;
  ByteWriter w(&payload);
  for (const std::string& name : delta.added_type_names) w.String(name);
  w.PadTo8();
  w.Items(delta.added_node_types);
  w.PadTo8();
  w.Items(delta.removed_arcs);
  w.Items(delta.added_arcs);
  return payload;
}

// Reads and validates the fixed header; `buf` may be just the header
// (ReadDeltaFileInfo) or the whole file.
Status ParseDeltaHeader(std::string_view buf, DeltaHeader* h) {
  ByteReader r(buf, "delta header");
  if (!r.Pod(h)) return r.status();
  if (std::memcmp(h->magic, kDeltaMagic, sizeof(h->magic)) != 0) {
    return Status::IoError("bad delta magic");
  }
  if (h->version != kDeltaVersion) {
    return Status::IoError("unsupported delta version " +
                           std::to_string(h->version));
  }
  if (h->header_bytes != kDeltaHeaderBytes) {
    return Status::IoError("bad delta header size");
  }
  return Status::OK();
}

StatusOr<GraphDelta> LoadGraphDeltaBuffer(std::string_view buf) {
  DeltaHeader h{};
  RTR_RETURN_IF_ERROR(ParseDeltaHeader(buf, &h));
  if (h.num_added_nodes >= kInvalidNode ||
      h.num_added_types > std::numeric_limits<NodeTypeId>::max() ||
      h.num_removed_arcs > kMaxDeltaOps || h.num_added_arcs > kMaxDeltaOps) {
    return Status::IoError("delta header counts out of range");
  }

  // The type-name block is variable-length; everything after it is fixed,
  // so the minimum-size check runs first and the exact-size check once the
  // names are parsed.
  const uint64_t fixed_bytes =
      PadTo8(h.num_added_nodes * sizeof(NodeTypeId)) +
      h.num_removed_arcs * sizeof(ArcRemove) +
      h.num_added_arcs * sizeof(ArcInsert);
  if (buf.size() < kDeltaHeaderBytes + fixed_bytes) {
    return Status::IoError("delta file truncated");
  }
  const std::string_view payload = buf.substr(kDeltaHeaderBytes);
  const size_t type_block_bytes = payload.size() - fixed_bytes;
  if (type_block_bytes % 8 != 0) {
    return Status::IoError("delta type-name block misaligned");
  }
  if (DeltaChecksum(h, payload) != h.checksum) {
    return Status::IoError("delta checksum mismatch");
  }

  GraphDelta delta;
  delta.base_generation = h.base_generation;
  ByteReader r(payload, "delta");
  std::string name;
  for (uint64_t t = 0; t < h.num_added_types && r.String(&name); ++t) {
    delta.added_type_names.push_back(name);
  }
  if (r.ZeroPadTo8() && r.offset() != type_block_bytes) {
    r.Fail("type-name block size disagrees with its header");
  }
  r.Items(h.num_added_nodes, &delta.added_node_types);
  r.ZeroPadTo8();
  r.Items(h.num_removed_arcs, &delta.removed_arcs);
  r.Items(h.num_added_arcs, &delta.added_arcs);
  r.End();
  RTR_RETURN_IF_ERROR(r.status());
  return delta;
}

}  // namespace

Status SaveGraphDelta(const GraphDelta& delta, std::ostream& out) {
  const std::string payload = SerializeDeltaPayload(delta);
  DeltaHeader h{};
  std::memcpy(h.magic, kDeltaMagic, sizeof(h.magic));
  h.version = kDeltaVersion;
  h.header_bytes = kDeltaHeaderBytes;
  h.base_generation = delta.base_generation;
  h.num_added_types = delta.added_type_names.size();
  h.num_added_nodes = delta.added_node_types.size();
  h.num_removed_arcs = delta.removed_arcs.size();
  h.num_added_arcs = delta.added_arcs.size();
  h.checksum = DeltaChecksum(h, payload);
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) return Status::IoError("failed writing delta stream");
  return Status::OK();
}

Status SaveGraphDeltaToFile(const GraphDelta& delta, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  return SaveGraphDelta(delta, out);
}

StatusOr<GraphDelta> LoadGraphDelta(std::istream& in) {
  const std::string buf(std::istreambuf_iterator<char>(in), {});
  return LoadGraphDeltaBuffer(buf);
}

StatusOr<GraphDelta> LoadGraphDeltaFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  return LoadGraphDelta(in);
}

StatusOr<bool> IsDeltaFile(const std::string& path) {
  StatusOr<std::string> head = ReadFilePrefix(path, sizeof(kDeltaMagic));
  RTR_RETURN_IF_ERROR(head.status());
  return *head == std::string_view(kDeltaMagic, sizeof(kDeltaMagic));
}

StatusOr<DeltaFileInfo> ReadDeltaFileInfo(const std::string& path) {
  StatusOr<std::string> head = ReadFilePrefix(path, kDeltaHeaderBytes);
  RTR_RETURN_IF_ERROR(head.status());
  DeltaHeader h{};
  RTR_RETURN_IF_ERROR(ParseDeltaHeader(*head, &h));
  return DeltaFileInfo{h.version,          h.base_generation,
                       h.num_added_types,  h.num_added_nodes,
                       h.num_removed_arcs, h.num_added_arcs,
                       h.checksum};
}

}  // namespace rtr
